"""Configuration viewer rendering."""

from repro.config import Config, Policy, build_tree
from repro.search import SearchEngine
from repro.viewer import render_config_tree, render_search_summary, render_source_view
from tests.conftest import compile_src

SRC = """
fn scale(x: real) -> real {
    return x * 0.5;
}
fn main() {
    var s: real = 0.0;
    for i in 0 .. 4 {
        s = s + scale(real(i));
    }
    out(s);
}
"""


class TestTreeView:
    def test_contains_structure_and_flags(self):
        program = compile_src(SRC)
        tree = build_tree(program)
        config = Config(tree)
        fn = tree.nodes_at("function")[0]
        config.set(fn.node_id, Policy.SINGLE)
        text = render_config_tree(config)
        assert "candidates:" in text
        assert fn.node_id in text
        assert "\n  s " in text  # the explicit flag column
        assert "mulsd" in text or "addsd" in text

    def test_profile_weights_shown(self):
        from repro.vm import run_program

        program = compile_src(SRC)
        tree = build_tree(program)
        profile = run_program(program, profile=True).exec_counts
        text = render_config_tree(Config(tree), profile=profile)
        assert "% execs" in text

    def test_max_instructions_caps_output(self):
        program = compile_src(SRC)
        tree = build_tree(program)
        text = render_config_tree(Config(tree), max_instructions=1)
        assert text.count("INSN") == 1


class TestSourceView:
    def test_lines_annotated(self):
        program = compile_src(SRC)
        tree = build_tree(program)
        config = Config.all_single(tree)
        text = render_source_view(config, SRC, module_label="main")
        assert "; module main" in text
        # the multiply line carries a single-precision marker
        marked = [l for l in text.splitlines() if "x * 0.5" in l]
        assert marked and "s]" in marked[0]

    def test_unannotated_lines_blank_margin(self):
        program = compile_src(SRC)
        tree = build_tree(program)
        text = render_source_view(Config(tree), SRC)
        blank = [l for l in text.splitlines() if "fn main" in l]
        assert blank and blank[0].startswith(" " * 8)


class TestSearchSummary:
    def test_summary_includes_history(self):
        from repro.vm import outputs_close, run_program

        class W:
            name = "view"
            program = compile_src(SRC)

            def run(self, program=None):
                return run_program(program if program is not None else self.program)

            def verify(self, result):
                return outputs_close(
                    result.values(), run_program(self.program).values(), rel_tol=1e-5
                )

            def profile(self):
                return run_program(self.program, profile=True).exec_counts

        result = SearchEngine(W()).run()
        text = render_search_summary(result)
        assert "configurations tested" in text
        assert "static  replaced" in text
        assert "history:" in text


class TestMarkdownReport:
    def _result(self, refine=False):
        from repro.search import SearchEngine, SearchOptions
        from repro.workloads import make_workload

        workload = make_workload("amg", "S")
        result = SearchEngine(workload, SearchOptions(refine=refine)).run()
        return workload, result

    def test_report_structure(self):
        from repro.viewer import render_markdown_report

        workload, result = self._result()
        report = render_markdown_report(result, workload)
        assert report.startswith("# Mixed-precision analysis: amg.S")
        assert "## Per-function breakdown" in report
        assert "## Search history" in report
        assert "## Recommended configuration" in report
        assert "smooth()" in report
        assert "MODL01" in report

    def test_report_without_workload_profile(self):
        from repro.viewer import render_markdown_report

        _workload, result = self._result()
        report = render_markdown_report(result)
        assert "execution share" in report  # column exists, weights zero

    def test_report_states_verification(self):
        from repro.viewer import render_markdown_report

        workload, result = self._result()
        assert "**pass**" in render_markdown_report(result, workload)


class TestWidthsBelowSingle:
    """Sites narrowed below f32 count as replaced and show their width."""

    def _result(self):
        from repro.search.results import SearchResult

        program = compile_src(SRC)
        tree = build_tree(program)
        nodes = sorted(tree.by_addr.values(), key=lambda n: n.addr)
        config = Config(tree)
        for node, policy in zip(nodes, (Policy.HALF, Policy.BF16)):
            config.set(node.node_id, policy)
        for node in nodes[2:]:
            config.set(node.node_id, Policy.SINGLE)
        result = SearchResult(
            workload="view", candidates=len(nodes), configs_tested=0,
            final_config=config, final_verified=True, static_pct=1.0,
            dynamic_pct=1.0,
        )
        return result, nodes

    def test_report_counts_every_narrow_width(self):
        from repro.viewer import render_markdown_report

        result, _nodes = self._result()
        report = render_markdown_report(result)
        tree = result.final_config.tree
        for fn in tree.nodes_at("function"):
            count = len(list(fn.instructions()))
            assert f"| `{fn.label}` | {count} | {count} (100%) |" in report

    def test_explain_prints_each_sites_width(self):
        from repro.viewer import render_explain_report

        def rows(result):
            return {
                line.split("`")[1]: line
                for line in render_explain_report(result).splitlines()
                if line.startswith("| `")
            }

        result, nodes = self._result()
        explained = rows(result)
        assert "| f16 |" in explained[nodes[0].node_id]
        assert "| bf16 |" in explained[nodes[1].node_id]
        for node in nodes[2:]:
            assert "| single |" in explained[node.node_id]
        result.final_config.set(nodes[0].node_id, Policy.DOUBLE)
        assert "| double |" in rows(result)[nodes[0].node_id]
