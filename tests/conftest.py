"""Shared test helpers and fixtures."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, settings

from repro.compiler import CompileOptions, compile_source
from repro.telemetry import Telemetry
from repro.vm import run_program

#: The deep profile of the generative fused-vs-reference differential
#: (tests/vm/test_fused_generative.py), selected in CI with
#: ``--hypothesis-profile fused-deep``.  Without it, that test runs its
#: own small derandomized settings.
settings.register_profile(
    "fused-deep",
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_telemetry_init = Telemetry.__init__


def _validating_init(self, sinks=(), metrics=None, validate=True):
    _telemetry_init(self, sinks=sinks, metrics=metrics, validate=validate)


@pytest.fixture(autouse=True)
def _validate_all_events(monkeypatch):
    """Debug mode for the whole suite: every Telemetry built by code under
    test validates each emitted event against EVENT_FIELDS, so a malformed
    event fails the test that produced it rather than poisoning a trace."""
    monkeypatch.setattr(Telemetry, "__init__", _validating_init)


def run_src(source: str, real_type: str = "f64", **run_kwargs):
    """Compile a single-module MH source and run it; returns decoded values."""
    program = compile_source(source, CompileOptions(real_type=real_type))
    return run_program(program, **run_kwargs).values()


def compile_src(source: str, real_type: str = "f64", **opts):
    return compile_source(source, CompileOptions(real_type=real_type, **opts))


def untiled(program):
    """*program* without the template tiling an instrumented build
    carries: the VM loads it as one whole-program segment, from its text
    rather than from the templates."""
    return dataclasses.replace(program, segments=None)


@pytest.fixture
def simple_fp_program():
    """A small program with a few FP candidates, used across suites."""
    return compile_src(
        """
        var acc: real;
        fn main() {
            var s: real = 0.0;
            var p: real = 1.0;
            for i in 0 .. 20 {
                s = s + real(i) * 0.25;
                p = p * 1.01;
            }
            acc = s / p;
            out(s);
            out(p);
            out(sqrt(acc));
        }
        """
    )
