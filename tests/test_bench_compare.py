"""``bench --compare``: the CI perf gates replayed over saved documents.

``repro.perfbench.BENCH_GATES`` mirrors every threshold the CI lane
asserts; ``compare_bench`` applies them to a *new* BENCH_perf document
next to an *old* one so a regression is visible locally before CI sees
it.  These tests pin the verdict semantics (PASS / FAIL / SKIP), the
regressed flag that drives the CLI exit code, and the gate list itself
staying in sync with the scenarios that exist.
"""

from __future__ import annotations

import json

import pytest

from repro.perfbench import BENCH_GATES, SCENARIOS, compare_bench


def _doc(mode="full", seed=42, **scenarios):
    return {"mode": mode, "seed": seed, "scenarios": scenarios}


def _passing_scenarios():
    """One value per gated metric, comfortably on the passing side."""
    out: dict[str, dict] = {}
    for scenario, metric, op, threshold, _full_only in BENCH_GATES:
        block = out.setdefault(scenario, {"wall_s": 1.0})
        block[metric] = threshold * (0.5 if op == "<" else 2.0)
    return out


class TestGateList:
    def test_every_gate_names_a_real_scenario(self):
        for scenario, _metric, op, threshold, _full_only in BENCH_GATES:
            assert scenario in SCENARIOS
            assert op in ("<", ">")
            assert threshold > 0

    def test_vector_path_gates_present(self):
        """The two coverage-gap speedups are gated alongside the
        original fastcore gate, and a streamed vector replay is bounded
        against the same replay on a pre-built list (in quick mode too)."""
        gates = {(s, m): (op, t, f) for s, m, op, t, f in BENCH_GATES}
        assert gates[("fleet_replay_fastcore", "speedup_vector_vs_python")][:2] == (">", 3.0)
        assert gates[
            ("fleet_replay_faultpath", "speedup_vector_fault_vs_python")
        ][:2] == (">", 2.5)
        assert gates[
            ("fleet_replay_queueaware", "speedup_vector_least_vs_python")
        ][:2] == (">", 2.0)
        assert gates[
            ("fleet_replay_streaming", "ratio_vector_stream_vs_list")
        ] == ("<", 1.10, False)


class TestCompareBench:
    def test_all_passing_is_not_regressed(self):
        doc = _doc(**_passing_scenarios())
        text, regressed = compare_bench(doc, doc)
        assert not regressed
        assert "FAIL" not in text
        assert text.count("PASS") == len(BENCH_GATES)

    def test_new_document_failure_flags_regression(self):
        old = _doc(**_passing_scenarios())
        bad = _passing_scenarios()
        bad["fleet_replay_queueaware"]["speedup_vector_least_vs_python"] = 1.3
        text, regressed = compare_bench(old, _doc(**bad))
        assert regressed
        assert "FAIL" in text
        # The failing gate row names the metric and both values.
        row = next(l for l in text.splitlines() if "FAIL" in l)
        assert "speedup_vector_least_vs_python" in row
        assert "1.300" in row

    def test_old_document_failure_does_not_regress(self):
        """Only the *new* document is gated: comparing against a bad
        baseline must not fail the good run."""
        bad = _passing_scenarios()
        bad["fleet_replay_fastcore"]["speedup_vector_vs_python"] = 0.9
        _, regressed = compare_bench(_doc(**bad), _doc(**_passing_scenarios()))
        assert not regressed

    def test_missing_metric_skips_not_fails(self):
        present = _passing_scenarios()
        partial = _passing_scenarios()
        del partial["fleet_replay_queueaware"]
        text, regressed = compare_bench(_doc(**present), _doc(**partial))
        assert not regressed
        assert "SKIP" in text

    def test_metric_absent_from_both_documents_omitted(self):
        text, regressed = compare_bench(_doc(), _doc())
        assert not regressed
        assert "PASS" not in text and "FAIL" not in text

    def test_full_only_gates_skip_on_quick_document(self):
        """The vector-core speedups are sized for the full fleets: a
        quick document reading below their thresholds SKIPs them and
        says why, instead of failing."""
        quick = _passing_scenarios()
        quick["fleet_replay_fastcore"]["speedup_vector_vs_python"] = 2.42
        quick["fleet_replay_faultpath"]["speedup_vector_fault_vs_python"] = 2.32
        quick["fleet_replay_queueaware"]["speedup_vector_least_vs_python"] = 1.82
        text, regressed = compare_bench(
            _doc(**_passing_scenarios()), _doc(mode="quick", **quick)
        )
        assert not regressed
        full_only = [g for g in BENCH_GATES if g[4]]
        assert len(full_only) == 3
        for scenario, metric, *_ in full_only:
            row = next(l for l in text.splitlines() if f"{scenario}.{metric}" in l)
            assert "SKIP (needs a full-mode document)" in row
        assert text.count("PASS") == len(BENCH_GATES) - len(full_only)
        # The same readings in a full-mode document fail.
        _, regressed = compare_bench(
            _doc(**_passing_scenarios()), _doc(mode="full", **quick)
        )
        assert regressed

    def test_skipped_scenario_fails_its_gates(self):
        """A gated scenario that ran but returned ``{"skipped": ...}``
        (e.g. numpy absent) fails instead of silently skipping."""
        new = _passing_scenarios()
        new["fleet_replay_fastcore"] = {"skipped": "numpy absent"}
        text, regressed = compare_bench(_doc(**_passing_scenarios()), _doc(**new))
        assert regressed
        row = next(l for l in text.splitlines() if "FAIL" in l)
        assert "speedup_vector_vs_python" in row
        assert "numpy absent" in row

    def test_round_range_printed_beside_new_value(self):
        """A document that records ``<metric>_rounds`` shows each gate's
        per-round range next to its value, so a FAIL inside its own
        range reads as host noise; an older document prints none."""
        old = _doc(**_passing_scenarios())
        new = _passing_scenarios()
        new["fleet_replay_carbonpath"]["ratio_vs_carbon_off"] = 1.12
        new["fleet_replay_carbonpath"]["ratio_vs_carbon_off_rounds"] = [1.12, 0.98]
        text, regressed = compare_bench(old, _doc(**new))
        assert regressed
        row = next(l for l in text.splitlines() if "ratio_vs_carbon_off" in l)
        assert "1.120 [rounds 0.980-1.120]" in row
        assert row.endswith("FAIL")
        assert "rounds" not in compare_bench(old, old)[0]

    def test_mode_mismatch_noted(self):
        text, _ = compare_bench(
            _doc(mode="quick", **_passing_scenarios()),
            _doc(mode="full", **_passing_scenarios()),
        )
        assert "different modes" in text

    def test_wall_table_in_registry_order(self):
        doc = _doc(**_passing_scenarios())
        text, _ = compare_bench(doc, doc)
        known = set(doc["scenarios"])
        listed = [
            line.split()[0]
            for line in text.splitlines()
            if line.split() and line.split()[0] in known
        ]
        assert listed == [n for n in SCENARIOS if n in known]


class TestCompareCli:
    """``repro.cli bench --compare OLD NEW`` wires the regressed flag
    into the exit code without running any scenario."""

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        from repro.cli import main

        doc = _doc(**_passing_scenarios())
        old = self._write(tmp_path, "old.json", doc)
        new = self._write(tmp_path, "new.json", doc)
        assert main(["bench", "--compare", old, new]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        bad = _passing_scenarios()
        bad["fleet_replay_faultpath"]["speedup_vector_fault_vs_python"] = 1.1
        old = self._write(tmp_path, "old.json", _doc(**_passing_scenarios()))
        new = self._write(tmp_path, "new.json", _doc(**bad))
        assert main(["bench", "--compare", old, new]) == 1
        assert "FAIL" in capsys.readouterr().out
