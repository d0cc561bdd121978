"""RL11xx: whole-program interprocedural rules over the project call graph.

Each test writes a small synthetic package tree (mimicking the repo
layout, since the rules are path-scoped) seeded with one cross-file
violation the per-file families cannot see: a helper-laundered seed, a
cross-module serve mutation, a typo'd fault site, a ``time.time``-tainted
bench row.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.engine import lint_paths
from tests.lint.conftest import rule_ids


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` under a temp root and lint the tree."""

    def _lint(files, rule_ids=None):
        for relpath, source in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return lint_paths([tmp_path], root=tmp_path, rule_ids=rule_ids)

    return _lint


def messages(result):
    return [f.message for f in result.findings]


class TestDeterminismTaint:
    """RL1101: nondet sources must not reach bench rows / span meta / serve."""

    STAMP = """
        import time

        def wall_stamp():
            return time.time()

        def duration():
            return time.perf_counter()
    """

    def test_time_tainted_bench_row(self, lint_tree):
        result = lint_tree({
            "src/repro/obs/stamp.py": self.STAMP,
            "benchmarks/bench_foo.py": """
                from repro.obs.stamp import wall_stamp

                def run_experiment(profile="smoke"):
                    return [{"t": wall_stamp()}]
            """,
        }, rule_ids=["RL1101"])
        (finding,) = result.findings
        assert finding.path == "benchmarks/bench_foo.py"
        assert "bench rows (run_experiment)" in finding.message
        assert (
            "benchmarks.bench_foo.run_experiment -> "
            "repro.obs.stamp.wall_stamp -> time.time()" in finding.message
        )

    def test_perf_counter_is_exempt(self, lint_tree):
        result = lint_tree({
            "src/repro/obs/stamp.py": self.STAMP,
            "benchmarks/bench_foo.py": """
                from repro.obs.stamp import duration

                def run_experiment(profile="smoke"):
                    return [{"elapsed": duration()}]
            """,
        }, rule_ids=["RL1101"])
        assert rule_ids(result) == set()

    def test_serve_layer_is_a_sink(self, lint_tree):
        result = lint_tree({
            "src/repro/obs/stamp.py": self.STAMP,
            "src/repro/serve/api.py": """
                from repro.obs.stamp import wall_stamp

                def handle(batch):
                    return {"ts": wall_stamp(), "n": len(batch)}
            """,
        }, rule_ids=["RL1101"])
        (finding,) = result.findings
        assert finding.path == "src/repro/serve/api.py"
        assert "the serving layer" in finding.message

    def test_span_meta_writer_is_a_sink(self, lint_tree):
        result = lint_tree({
            "src/repro/obs/tracer.py": """
                import uuid

                def traced(span):
                    span.meta["trace_id"] = str(uuid.uuid4())
            """,
        }, rule_ids=["RL1101"])
        (finding,) = result.findings
        assert "span meta" in finding.message
        assert "uuid.uuid4()" in finding.message

    def test_set_iteration_flagged_in_serve(self, lint_tree):
        result = lint_tree({
            "src/repro/serve/api.py": """
                def handle(ids):
                    return [i for i in set(ids)]
            """,
        }, rule_ids=["RL1101"])
        (finding,) = result.findings
        assert "set iteration" in finding.message

    def test_nondet_outside_any_sink_is_silent(self, lint_tree):
        result = lint_tree({
            "src/repro/obs/stamp.py": self.STAMP,
            "src/repro/er/train.py": """
                from repro.obs.stamp import wall_stamp

                def log_started():
                    return wall_stamp()
            """,
        }, rule_ids=["RL1101"])
        assert rule_ids(result) == set()


class TestSeedFlow:
    """RL1102: helper-laundered seeds are flagged at the call site."""

    HELPER = """
        import numpy as np

        def make_rng(seed=None):
            return np.random.default_rng(seed)
    """

    def test_helper_laundered_clock_seed(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/helper.py": self.HELPER,
            "src/repro/er/uses.py": """
                import time

                from repro.utils.helper import make_rng

                def launder():
                    return make_rng(time.time())
            """,
        }, rule_ids=["RL1102"])
        (finding,) = result.findings
        assert finding.path == "src/repro/er/uses.py"
        assert "passes time.time() as seed argument 'seed'" in finding.message
        assert "laundering nondeterminism into the default_rng()" in finding.message
        assert "src/repro/utils/helper.py" in finding.message

    def test_silent_omission_through_none_default(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/helper.py": self.HELPER,
            "src/repro/er/uses.py": """
                from repro.utils.helper import make_rng

                def omit():
                    return make_rng()
            """,
        }, rule_ids=["RL1102"])
        (finding,) = result.findings
        assert "omits seed argument 'seed'" in finding.message
        assert "None default launders an unseeded default_rng()" in finding.message

    def test_two_hop_laundering_chain(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/helper.py": self.HELPER,
            "src/repro/er/uses.py": """
                import time

                from repro.utils.helper import make_rng

                def chained(s=None):
                    return make_rng(s)

                def deep():
                    return chained(time.time())
            """,
        }, rule_ids=["RL1102"])
        (finding,) = result.findings
        assert "call to repro.er.uses.chained() passes time.time()" in finding.message

    def test_explicit_seed_is_clean(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/helper.py": self.HELPER,
            "src/repro/er/uses.py": """
                from repro.utils.helper import make_rng

                def explicit():
                    return make_rng(1234)
            """,
        }, rule_ids=["RL1102"])
        assert rule_ids(result) == set()

    def test_direct_unseeded_construction(self, lint_tree):
        result = lint_tree({
            "src/repro/er/uses.py": """
                import numpy as np

                def fresh():
                    return np.random.default_rng()
            """,
        }, rule_ids=["RL1102"])
        (finding,) = result.findings
        assert "unseeded default_rng() in repro.er.uses.fresh" in finding.message


class TestFaultSiteCoherence:
    """RL1103: inject() strings and the declared catalog must agree."""

    TREE = {
        "src/repro/faults/sites.py": """
            RETRY_SITES = {
                "er.blocking.lsh": "blocker band matching",
                "pipeline.step.*": "per-step pattern",
            }

            LATENCY_ONLY_SITES = {
                "weak.vote": "never wired anywhere",
            }

            CORRUPT_SITES = ("er.blocking.lsh", "serve.rogue")
        """,
        "src/repro/er/blocking.py": """
            from repro.faults import inject

            def candidates(plan):
                inject("er.blocking.lshh")
                inject("er.blocking.lsh")
                inject("pipeline.step.clean")
        """,
    }

    def test_typo_dead_site_and_subset_violation(self, lint_tree):
        result = lint_tree(dict(self.TREE), rule_ids=["RL1103"])
        found = messages(result)
        assert len(found) == 3
        typo = next(f for f in result.findings if "er.blocking.lshh" in f.message)
        assert typo.path == "src/repro/er/blocking.py"
        assert typo.severity == "error"
        assert "not declared" in typo.message
        rogue = next(f for f in result.findings if "serve.rogue" in f.message)
        assert rogue.path == "src/repro/faults/sites.py"
        assert "CORRUPT_SITES" in rogue.message
        dead = next(f for f in result.findings if "weak.vote" in f.message)
        assert dead.severity == "warning"
        assert "no inject()/site= reference" in dead.message

    def test_dead_site_warning_does_not_fail_the_gate(self, lint_tree):
        tree = {
            "src/repro/faults/sites.py": self.TREE["src/repro/faults/sites.py"]
            .replace('CORRUPT_SITES = ("er.blocking.lsh", "serve.rogue")',
                     'CORRUPT_SITES = ("er.blocking.lsh",)'),
            "src/repro/er/blocking.py": """
                from repro.faults import inject

                def candidates(plan):
                    inject("er.blocking.lsh")
                    inject("pipeline.step.clean")
            """,
        }
        result = lint_tree(tree, rule_ids=["RL1103"])
        assert [f.severity for f in result.findings] == ["warning"]
        assert result.new_warnings and not result.new_errors
        assert result.ok

    def test_site_kwarg_usage_counts(self, lint_tree):
        tree = dict(self.TREE)
        tree["src/repro/er/blocking.py"] = """
            from repro.faults import inject, inject_result

            def candidates(plan, rows):
                inject("er.blocking.lsh")
                inject("pipeline.step.clean")
                return inject_result(rows, site="weak.vote")
        """
        result = lint_tree(tree, rule_ids=["RL1103"])
        found = messages(result)
        assert not any("weak.vote" in m for m in found)

    def test_gateway_style_retry_kwargs_satisfy_the_catalog(self, lint_tree):
        # The gateway declares three sites and references every one of
        # them via ``retry_call(..., site=...)`` — the kwarg form must
        # count as a reference (no dead-site warning) and the corrupt
        # subset must accept the two pure sites.
        result = lint_tree({
            "src/repro/faults/sites.py": """
                RETRY_SITES = {
                    "gateway.admit": "token-bucket preview",
                    "gateway.route": "route-table lookup",
                    "gateway.dispatch": "router group execution",
                }

                LATENCY_ONLY_SITES = {}

                CORRUPT_SITES = ("gateway.admit", "gateway.route")
            """,
            "src/repro/gateway/api.py": """
                from repro.faults.retry import retry_call

                def admit(bucket, now):
                    return retry_call(bucket.preview, now, site="gateway.admit")

                def dispatch(gateway, group):
                    router = retry_call(
                        gateway.resolve, group.route, site="gateway.route"
                    )
                    return retry_call(
                        router.handle_group, group.requests,
                        site="gateway.dispatch",
                    )
            """,
        }, rule_ids=["RL1103"])
        assert messages(result) == []

    def test_tree_without_catalog_is_silent(self, lint_tree):
        result = lint_tree({
            "src/repro/er/blocking.py": """
                from repro.faults import inject

                def candidates(plan):
                    inject("whatever.site")
            """,
        }, rule_ids=["RL1103"])
        assert rule_ids(result) == set()


class TestServePurityClosure:
    """RL1104: the serve call-graph closure must stay inference-only."""

    TRAINER = """
        def refresh(model, pairs):
            model.fit(pairs)
            return model
    """

    def test_cross_module_fit_flagged_where_rl901_is_blind(self, lint_tree):
        result = lint_tree({
            "src/repro/er/trainer.py": self.TRAINER,
            "src/repro/serve/service.py": """
                from repro.er.trainer import refresh

                def handle(model, pairs):
                    return refresh(model, pairs)
            """,
        }, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}
        (finding,) = result.findings
        assert finding.path == "src/repro/serve/service.py"
        assert (
            "repro.serve.service.handle -> repro.er.trainer.refresh"
            in finding.message
        )
        assert ".fit() call" in finding.message

    def test_in_package_mutation_stays_rl901s(self, lint_tree):
        # RL1104 absorbed RL901: a serving function's own mutation is
        # reported once, at the mutation, not again through its callers.
        result = lint_tree({
            "src/repro/serve/service.py": """
                def retrain(model, pairs):
                    model.fit(pairs)

                def handle(model, pairs):
                    retrain(model, pairs)
            """,
        }, rule_ids=["RL1104"])
        (finding,) = result.findings
        assert finding.rule_id == "RL1104" and finding.line == 3
        assert "performs a .fit() call (model.fit)" in finding.message
        assert "repro.serve.service.retrain" in finding.message

    def test_pure_closure_is_clean(self, lint_tree):
        result = lint_tree({
            "src/repro/er/scorer.py": """
                def score(model, pairs):
                    return model.predict(pairs)
            """,
            "src/repro/serve/service.py": """
                from repro.er.scorer import score

                def handle(model, pairs):
                    return score(model, pairs)
            """,
        }, rule_ids=["RL1104"])
        assert rule_ids(result) == set()

    def test_transitive_data_write_flagged(self, lint_tree):
        result = lint_tree({
            "src/repro/nn/update.py": """
                def nudge(param, delta):
                    param.data = param.data + delta
            """,
            "src/repro/er/adjust.py": """
                from repro.nn.update import nudge

                def calibrate(model, delta):
                    nudge(model.bias, delta)
            """,
            "src/repro/serve/service.py": """
                from repro.er.adjust import calibrate

                def handle(model, delta):
                    calibrate(model, delta)
            """,
        }, rule_ids=["RL1104"])
        (finding,) = result.findings
        assert ".data write" in finding.message
        assert (
            "repro.serve.service.handle -> repro.er.adjust.calibrate -> "
            "repro.nn.update.nudge" in finding.message
        )
