"""RL1104: the read-only inference contract inside repro/serve/.

These fixtures were written for the per-file RL901 rule, which RL1104
absorbed: a serving function's own training call, optimizer import or
step, ``.backward()`` or ``.data`` write is an RL1104 finding.
"""

from __future__ import annotations

from tests.lint.conftest import rule_ids

SERVE_PATH = "src/repro/serve/service.py"


class TestTrainingCalls:
    def test_fit_call_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def refresh(matcher, pairs):
                matcher.fit(pairs)
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_backward_call_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def probe(loss):
                loss.backward()
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_optimizer_step_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def tune(optimizer):
                optimizer.step()
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_plain_step_allowed(self, lint_file):
        # A simulator's own `step` is not an optimizer step.
        result = lint_file(SERVE_PATH, """
            def drain(loop):
                loop.step()
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == set()

    def test_any_step_flagged_once_optim_imported(self, lint_file):
        result = lint_file(SERVE_PATH, """
            from repro.nn.optim import SGD

            def tune(s):
                s.step()
        """, rule_ids=["RL1104"])
        # Both the import and the now-suspicious step are findings.
        assert len(result.findings) == 2
        assert rule_ids(result) == {"RL1104"}

    def test_optim_import_flagged(self, lint_file):
        for snippet in (
            "import repro.nn.optim\n",
            "from repro.nn import optim\n",
        ):
            result = lint_file(SERVE_PATH, snippet, rule_ids=["RL1104"])
            assert rule_ids(result) == {"RL1104"}


class TestDataWrites:
    def test_data_rebinding_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def clamp(param, array):
                param.data = array
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_data_augassign_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def nudge(param, gradient):
                param.data += gradient
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_data_slice_assign_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def zero(param):
                param.data[:] = 0.0
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_data_inplace_method_flagged(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def wipe(param):
                param.data.fill(0.0)
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == {"RL1104"}

    def test_data_read_allowed(self, lint_file):
        result = lint_file(SERVE_PATH, """
            import hashlib

            def fingerprint(params):
                digest = hashlib.sha1()
                for param in params:
                    digest.update(param.data.tobytes())
                return digest.hexdigest()
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == set()


class TestScoping:
    def test_inference_only_code_clean(self, lint_file):
        result = lint_file(SERVE_PATH, """
            def answer(matcher, pairs):
                matcher.classifier.eval()
                return matcher.predict_proba(pairs)
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == set()

    def test_rule_silent_outside_serve(self, lint_file):
        result = lint_file("src/repro/er/retrain.py", """
            def retrain(matcher, pairs, optimizer):
                matcher.fit(pairs)
                optimizer.step()
        """, rule_ids=["RL1104"])
        assert rule_ids(result) == set()

    def test_real_serve_package_is_clean(self):
        from pathlib import Path

        from repro.lint.engine import lint_paths
        import repro.serve

        package_dir = Path(repro.serve.__file__).parent
        repo_src = package_dir.parent.parent.parent
        result = lint_paths([package_dir], root=repo_src.parent,
                            rule_ids=["RL1104"])
        assert result.findings == []
