"""Command-line interface."""

import re

import pytest

from repro.cli import main
from repro.compiler import compile_source
from repro.mpi import run_mpi_program

SRC = """
fn main() {
    var s: real = 0.0;
    for i in 0 .. 25 { s = s + 0.5; }
    out(s);
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mh"
    path.write_text(SRC)
    return str(path)


class TestCompileRun:
    def test_compile_and_run_image(self, source_file, tmp_path, capsys):
        image = str(tmp_path / "prog.rpx")
        assert main(["compile", source_file, "-o", image]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "candidates" in out

        assert main(["run", image]) == 0
        out = capsys.readouterr().out
        assert "12.5" in out
        assert "cycles" in out

    def test_run_source_directly(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        assert "12.5" in capsys.readouterr().out

    def test_run_f32_build(self, source_file, capsys):
        assert main(["run", source_file, "--real", "f32"]) == 0
        assert "12.5" in capsys.readouterr().out

    def test_run_profile(self, source_file, capsys):
        assert main(["run", source_file, "--profile"]) == 0
        assert "hottest instructions" in capsys.readouterr().out

    def test_run_mpi(self, tmp_path, capsys):
        path = tmp_path / "pi.mh"
        path.write_text("fn main() { out(allreduce_sum(1.0)); }")
        assert main(["run", str(path), "--mpi", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 ranks" in out and "4.0" in out

    def test_run_mpi_profile_lists_rank0_counts(self, tmp_path, capsys):
        # The collective sits inside the loop, so counting carries on
        # across every collective yield and resume.
        src = """
        fn main() {
            var s: real = 0.0;
            for i in 0 .. 20 { s = allreduce_sum(s + 1.0) * 0.5; }
            out(s);
        }
        """
        path = tmp_path / "p.mh"
        path.write_text(src)
        assert main(["run", str(path), "--mpi", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "hottest instructions" in out
        listed = [
            (int(addr, 16), int(count))
            for addr, count in re.findall(r"^  (0x[0-9a-f]+): (\d+)$", out, re.M)
        ]
        counts = run_mpi_program(
            compile_source(src), 2, profile=True
        ).per_rank[0].exec_counts
        assert counts
        assert listed == sorted(counts.items(), key=lambda kv: -kv[1])[:10]

    def test_bad_image_rejected(self, tmp_path):
        bogus = tmp_path / "x.rpx"
        import pickle

        bogus.write_bytes(pickle.dumps({"not": "a program"}))
        with pytest.raises(SystemExit, match="not a program image"):
            main(["run", str(bogus)])


class TestDisasmConfigView:
    def test_disasm(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "addsd" in out and ".func main" in out

    def test_config_roundtrip(self, source_file, tmp_path, capsys):
        cfg = str(tmp_path / "p.cfg")
        assert main(["config", source_file, "-o", cfg]) == 0
        text = open(cfg).read()
        assert "INSN01" in text
        # flag the first instruction single and instrument with it
        text = re.sub(r"^ (\s*INSN01)", r"s\1", text, flags=re.M)
        open(cfg, "w").write(text)
        image = str(tmp_path / "p.instr.rpx")
        assert main(["instrument", source_file, "--config", cfg, "-o", image]) == 0
        out = capsys.readouterr().out
        assert "1 single snippets" in out

        assert main(["run", image]) == 0
        out = capsys.readouterr().out
        # the accumulation ran in single precision
        assert "12.5" in out

    def test_config_to_stdout(self, source_file, capsys):
        assert main(["config", source_file]) == 0
        assert "# program:" in capsys.readouterr().out

    def test_view(self, source_file, capsys):
        assert main(["view", source_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "flag  effective" in out and "% execs" in out


class TestInstrumentShortcuts:
    def test_all_single_shortcut(self, source_file, tmp_path, capsys):
        image = str(tmp_path / "s.rpx")
        assert main(["instrument", source_file, "--all-single", "-o", image]) == 0
        assert main(["run", image]) == 0
        out = capsys.readouterr().out
        # single-precision accumulation of 0.5 is exact, so same value
        assert "12.5" in out

    def test_mode_all_bit_identical(self, source_file, tmp_path, capsys):
        image = str(tmp_path / "g.rpx")
        assert main(["instrument", source_file, "--mode", "all", "-o", image]) == 0
        capsys.readouterr()
        assert main(["run", image]) == 0
        instrumented = capsys.readouterr().out
        assert main(["run", source_file]) == 0
        original = capsys.readouterr().out
        assert instrumented.splitlines()[-1] == original.splitlines()[-1]


class TestSearchAndExperiment:
    def test_search_workload(self, tmp_path, capsys):
        cfg = str(tmp_path / "amg.cfg")
        assert main(["search", "amg", "S", "-o", cfg]) == 0
        out = capsys.readouterr().out
        assert "configurations tested" in out
        assert "final pass" in out
        assert "wrote configuration" in out
        assert "MODL01" in open(cfg).read()

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9", "S"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "ep.S" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            main(["search", "nonesuch"])


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestStoreCommand:
    def _populated_store(self, tmp_path):
        from repro.search.results import EvalOutcome
        from repro.store import ResultStore

        db = str(tmp_path / "results.sqlite")
        with ResultStore(db) as store:
            store.put("wl-a", "k1", EvalOutcome(True, 100, "", ""))
            store.put("wl-a", "k2", EvalOutcome(False, 0, "boom", "trap"))
            store.put("wl-b", "k1", EvalOutcome(True, 50, "", ""))
        return db

    def test_export_import_round_trip(self, tmp_path, capsys):
        from repro.store import ResultStore

        db = self._populated_store(tmp_path)
        dump = str(tmp_path / "dump.jsonl")
        assert main(["store", "export", db, dump]) == 0
        assert "exported 3 outcomes" in capsys.readouterr().out

        fresh = str(tmp_path / "fresh.sqlite")
        assert main(["store", "import", fresh, dump]) == 0
        assert "imported 3 outcomes" in capsys.readouterr().out
        with ResultStore(fresh) as store:
            assert store.count() == 3
            outcome = store.get("wl-a", "k2")
            assert not outcome.passed and outcome.reason == "trap"

    def test_export_filters_by_workload(self, tmp_path, capsys):
        db = self._populated_store(tmp_path)
        dump = str(tmp_path / "wl-a.jsonl")
        assert main(["store", "export", db, dump, "--workload", "wl-a"]) == 0
        assert "exported 2 outcomes" in capsys.readouterr().out
        lines = open(dump).read().splitlines()
        assert len(lines) == 2
        assert all('"workload": "wl-a"' in line for line in lines)

    def test_import_collision_fails_with_exit_one(self, tmp_path, capsys):
        from repro.search.results import EvalOutcome
        from repro.store import ResultStore

        db = self._populated_store(tmp_path)
        dump = str(tmp_path / "dump.jsonl")
        assert main(["store", "export", db, dump]) == 0
        capsys.readouterr()
        # A target holding a *different* outcome under the same key.
        clashing = str(tmp_path / "clash.sqlite")
        with ResultStore(clashing) as store:
            store.put("wl-a", "k1", EvalOutcome(False, 0, "", "verify"))
        assert main(["store", "import", clashing, dump]) == 1
        assert "store import:" in capsys.readouterr().err

    def test_import_same_rows_is_idempotent(self, tmp_path, capsys):
        from repro.store import ResultStore

        db = self._populated_store(tmp_path)
        dump = str(tmp_path / "dump.jsonl")
        assert main(["store", "export", db, dump]) == 0
        assert main(["store", "import", db, dump]) == 0  # repeats no-op
        capsys.readouterr()
        with ResultStore(db) as store:
            assert store.count() == 3


class TestTelemetryFlags:
    def test_search_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = str(tmp_path / "trace.jsonl")
        assert main(["search", "amg", "--class", "S", "--trace", trace,
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "configurations tested" in out
        assert "telemetry metrics:" in out
        assert "wrote trace to" in out

        from repro.telemetry import validate_event

        events = [json.loads(line) for line in open(trace)]
        for event in events:
            validate_event(event)
        kinds = {event["kind"] for event in events}
        assert len(kinds) >= 4
        assert {"search.begin", "search.end", "eval.config",
                "instr.stats", "vm.opcodes"} <= kinds

    def test_search_trace_count_matches_summary(self, tmp_path, capsys):
        import json
        import re as _re

        trace = str(tmp_path / "t.jsonl")
        assert main(["search", "amg", "S", "--trace", trace]) == 0
        out = capsys.readouterr().out
        tested = int(_re.search(r"(\d+) configurations tested", out).group(1))
        events = [json.loads(line) for line in open(trace)]
        assert sum(1 for e in events if e["kind"] == "eval.config") == tested

    def test_search_quiet_suppresses_summary(self, capsys):
        assert main(["search", "amg", "S", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_search_verbose_prints_history(self, capsys):
        assert main(["search", "amg", "S", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "history:" in out
        assert "configurations tested" in out

    def test_run_trace(self, source_file, tmp_path, capsys):
        import json

        trace = str(tmp_path / "run.jsonl")
        assert main(["run", source_file, "--trace", trace]) == 0
        assert "12.5" in capsys.readouterr().out
        events = [json.loads(line) for line in open(trace)]
        assert any(e["kind"] == "vm.opcodes" for e in events)

    def test_run_metrics(self, source_file, capsys):
        assert main(["run", source_file, "--metrics"]) == 0
        assert "telemetry metrics:" in capsys.readouterr().out

    def test_search_report_embeds_metrics(self, tmp_path, capsys):
        report = str(tmp_path / "r.md")
        assert main(["search", "amg", "S", "--metrics", "--report",
                     report]) == 0
        text = open(report).read()
        assert "## Telemetry metrics" in text
        assert "## Search history" in text
        assert "| # | configuration | phase | outcome | wall |" in text

    def test_search_report_config_matches_config_out(self, tmp_path):
        # The report's configuration block is the -o file, lattice
        # header included.
        report = str(tmp_path / "r.md")
        cfg = str(tmp_path / "best.cfg")
        assert main(["search", "ep", "T", "--lattice", "f64,f32,bf16,f16",
                     "--report", report, "-o", cfg]) == 0
        written = open(cfg).read()
        assert "# lattice: f64,f32,bf16,f16\n" in written
        block = open(report).read().split(
            "## Recommended configuration (exchange format)\n\n```\n"
        )[1]
        assert block.split("```")[0] == written


PLUGIN_SOURCE = '''
from repro.sdk import WorkloadSpec
from repro.workloads.base import Workload

def make(klass):
    return Workload(name=f"cliplug.{klass}",
                    sources=["fn main() { out(2.0 + 2.0); }"], klass=klass)

WORKLOADS = [WorkloadSpec(name="cliplug", factory=make, classes=("T",),
                          description="cli plugin test workload")]
'''


class TestWorkloadsCommand:
    def test_lists_builtins(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("bt", "cg", "heat", "nekcg", "superlu"):
            assert name in out
        assert "built-in" in out
        assert "NAME" in out and "VERIFY" in out and "ORIGIN" in out

    def test_check_runs_conformance(self, capsys):
        assert main(["workloads", "--check"]) == 0
        out = capsys.readouterr().out
        assert "conformance heat.T: PASS" in out
        assert "conformance superlu.S: PASS" in out

    def test_plugin_listed_with_origin(self, tmp_path, capsys):
        path = tmp_path / "cliplug.py"
        path.write_text(PLUGIN_SOURCE)
        try:
            assert main(["workloads", "--plugin", str(path)]) == 0
            out = capsys.readouterr().out
            assert "cliplug" in out
            assert f"plugin:{path}" in out
        finally:
            from repro.workloads import REGISTRY

            REGISTRY.unregister("cliplug")

    def test_plugin_searchable(self, tmp_path, capsys):
        path = tmp_path / "cliplug.py"
        path.write_text(PLUGIN_SOURCE)
        try:
            assert main(["search", "cliplug", "--class", "T",
                         "--plugin", str(path)]) == 0
            out = capsys.readouterr().out
            assert "search cliplug" in out and "final pass" in out
        finally:
            from repro.workloads import REGISTRY

            REGISTRY.unregister("cliplug")

    def test_broken_plugin_exits_cleanly(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("raise RuntimeError('boom')\n")
        with pytest.raises(SystemExit, match="--plugin"):
            main(["workloads", "--plugin", str(path)])

    def test_unknown_workload_message_lists_names(self):
        with pytest.raises(KeyError, match="registered workloads"):
            main(["search", "nonesuch"])


class TestParsedDefaults:
    """Every subcommand's parsed arguments for a minimal invocation: the
    flags several subcommands share must parse to the same defaults
    wherever they are declared."""

    _COMPILE = {"real": "f64", "transcendentals": "instruction"}
    _TELEMETRY = {"metrics": False, "trace": None}
    _CLASS = {"klass": "W", "klass_opt": None}
    _SEARCH = {
        "analysis": True, "lattice": "f64,f32", "refine": False,
        "stop_level": "instruction",
    }
    _RUN = {
        "campaign": None, "explain": None, "lease_timeout": 30.0,
        "output": None, "plugin": [], "progress": False, "quiet": False,
        "report": None, "resume": None, "store": None, "verbose": False,
    }

    EXPECTED = {
        "compile a.mh": {**_COMPILE, "name": "a.out", "output": "a.rpx",
                         "sources": ["a.mh"]},
        "run a.mh": {**_COMPILE, **_TELEMETRY, "mpi": 1, "profile": False,
                     "seed": 0x9E3779B97F4A7C15, "stack": 8192,
                     "target": ["a.mh"]},
        "disasm a.mh": {**_COMPILE, "target": ["a.mh"]},
        "config a.mh": {**_COMPILE, "output": None, "target": ["a.mh"]},
        "instrument a.mh": {**_COMPILE, "all_single": False, "config": None,
                            "mode": "auto", "output": "a.instr.rpx",
                            "plain": False, "target": ["a.mh"]},
        "view a.mh": {**_COMPILE, "analysis": None, "config": None,
                      "profile": False, "target": ["a.mh"]},
        "workloads": {"check": False, "plugin": []},
        "analyze cg": {**_CLASS, **_TELEMETRY, "output": None, "plugin": [],
                       "workload": "cg"},
        "profile cg": {**_CLASS, **_TELEMETRY, "output": None, "plugin": [],
                       "top": 10, "workload": "cg"},
        "search cg": {**_CLASS, **_TELEMETRY, **_SEARCH, **_RUN,
                      "cluster": None, "workers": 1, "workload": "cg"},
        "search": {**_CLASS, **_TELEMETRY, **_SEARCH, **_RUN,
                   "cluster": None, "workers": 1, "workload": None},
        "serve h:1 cg": {**_CLASS, **_TELEMETRY, **_SEARCH, **_RUN,
                         "address": "h:1", "max_inflight": None,
                         "max_queued": None, "run_jobs": None,
                         "service": None, "workers": 4, "workload": "cg"},
        "serve h:1": {**_CLASS, **_TELEMETRY, **_SEARCH, **_RUN,
                      "address": "h:1", "max_inflight": None,
                      "max_queued": None, "run_jobs": None, "service": None,
                      "workers": 4, "workload": None},
        "submit h:1 cg": {**_CLASS, **_SEARCH, "address": "h:1",
                          "output": None, "plugin": [], "quantum": 1.0,
                          "quiet": False, "tenant": "default",
                          "timeout": 300.0, "wait": False, "workers": 4,
                          "workload": "cg"},
        "jobs h:1": {"address": "h:1", "cancel": None},
        "result h:1 j1": {"address": "h:1", "job": "j1", "output": None,
                          "quiet": False, "timeout": 300.0, "wait": False},
        "worker h:1": {"address": "h:1", "connect_retries": 50,
                       "max_tasks": None, "plugin": [], "quiet": False},
        "store export d f": {"db": "d", "file": "f", "store_command": "export",
                             "timeout": 5.0, "workload": None},
        "store import d f": {"db": "d", "file": "f", "store_command": "import",
                             "timeout": 5.0},
        "trace summary f": {"file": "f", "trace_command": "summary"},
        "trace compare a b": {"file_a": "a", "file_b": "b",
                              "trace_command": "compare"},
        "trace profile f": {"file": "f", "top": 20, "trace_command": "profile"},
        "trace flame f": {"file": "f", "output": None, "trace_command": "flame"},
        "experiment fig9": {"figure": "fig9", "klass": "W"},
    }

    @pytest.mark.parametrize("argv", sorted(EXPECTED))
    def test_minimal_invocation(self, argv):
        from repro.cli import build_parser

        parsed = vars(build_parser().parse_args(argv.split()))
        command = argv.split()[0]
        assert parsed.pop("command") == command
        assert parsed.pop("func").__name__ == f"cmd_{command}"
        assert parsed == self.EXPECTED[argv]

    @pytest.mark.parametrize("argv", [
        "analyze cg S", "analyze cg --class S", "profile cg --class S",
        "search cg S", "search cg --class S", "serve h:1 cg --class S",
        "submit h:1 cg S", "submit h:1 cg --class S",
    ])
    def test_class_given_either_way(self, argv):
        from repro.cli import build_parser

        parsed = build_parser().parse_args(argv.split())
        assert (parsed.klass_opt or parsed.klass) == "S"
