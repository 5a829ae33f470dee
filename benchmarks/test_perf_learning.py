"""Perf and correctness guard for the closed-loop learning layer.

Runs the simulated learning campaign (``bench_learning.py``), records
the measurements to ``BENCH_learning.json`` at the repository root,
and enforces the acceptance bar: the oracle gap over the campaign's
final third is no worse than over its first third, refitting never
leaves a final-third gap worse than learning off in any ablation
(scenario, seed) cell, the learning-off decisions stay byte-identical
to the golden captures while outcomes are recorded, every issued cap
set audits clean, and the converged warm path costs at most 10% over
a learning-off scheduler (median of interleaved timing pairs).
"""

from bench_learning import run_learning_bench

#: Campaign length floor (ISSUE 10: a >= 60-decision campaign).
MIN_DECISIONS = 60
#: Converged learning-on decision cost over warm learning-off.
MAX_WARM_OVERHEAD = 1.10


def test_learning_closes_oracle_gap(report):
    payload = run_learning_bench()
    thirds = payload["thirds"]
    learning = payload["learning"]
    identity = payload["golden_identity"]
    overhead = payload["overhead"]
    ablation = payload["ablation"]["rows"]

    lines = [
        "closed-loop learning — "
        f"{payload['campaign']['decisions']}-decision campaign "
        f"({payload['campaign']['rounds']} rounds x "
        f"{len(payload['campaign']['apps'])} apps x "
        f"{len(payload['campaign']['budgets_w'])} budgets)",
        f"  oracle gap: first {thirds['first']['mean_gap']:.4f} -> "
        f"middle {thirds['middle']['mean_gap']:.4f} -> "
        f"final {thirds['final']['mean_gap']:.4f}",
        f"  learner   : {learning['outcomes']} outcomes, "
        f"{learning['refits']} refits, "
        f"{learning['refitted_entries']} entries refitted",
        f"  golden    : {identity['checked']} learning-off decisions "
        f"re-checked with {identity['outcomes_recorded']} outcomes "
        f"recorded — identical: {identity['identical']}",
        f"  audits    : {payload['audit']['audits']} "
        f"(violations {payload['audit']['violations']})",
        f"  warm path : {overhead['on_per_decision_s'] * 1e6:.0f} us "
        f"learned vs {overhead['off_per_decision_s'] * 1e6:.0f} us off "
        f"({overhead['ratio']:.2f}x, median of {overhead['pairs']} pairs)",
        "  ablation  : final-third gap off -> refit",
    ] + [
        f"    {row['scenario']:<12} seed {row['seed']:>2}: "
        f"{row['off']['final_third_gap']:.4f} -> "
        f"{row['refit']['final_third_gap']:.4f}"
        for row in ablation
    ]
    report("perf_learning", "\n".join(lines))

    # The campaign is long enough to mean something.
    assert payload["campaign"]["decisions"] >= MIN_DECISIONS, payload[
        "campaign"
    ]["decisions"]
    # The loop is actually closed: outcomes flowed and refits happened.
    assert learning["outcomes"] >= payload["campaign"]["decisions"]
    assert learning["refits"] > 0, learning
    # Learning converges: the final third is no worse than the first.
    assert (
        thirds["final"]["mean_gap"] <= thirds["first"]["mean_gap"]
    ), thirds
    # Refitting never hurts: in every ablation cell the final third is
    # no worse than the same campaign with learning off.
    for row in ablation:
        assert (
            row["refit"]["final_third_gap"] <= row["off"]["final_third_gap"]
        ), row
        assert row["off"]["violations"] == row["refit"]["violations"] == 0, row
    # Learning off is bit-identical to the golden captures even with
    # observation history accumulating.
    assert identity["identical"], identity["mismatches"]
    # Every cap set issued during the campaign audited clean.
    assert payload["audit"]["violations"] == 0, payload["audit"]
    # The converged warm path stays cheap.
    assert overhead["ratio"] <= MAX_WARM_OVERHEAD, overhead
