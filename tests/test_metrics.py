import random

import pytest
from hypothesis import given, settings, strategies as st

from procforge.errors import ValidationError
from procforge.metrics import (
    RAW_GAP,
    breakpoints,
    displacement,
    evaluate,
    format_table,
    kendall_tau,
    lcs_length,
    ngram_overlap,
    raw_slack,
    sequence_report,
)


def runs_permutation(n, run_count, seed=0):
    """Split 0..n-1 into `run_count` runs and shuffle them so that no two
    originally-adjacent runs stay adjacent in order.  Preserved bigrams =
    n - run_count."""
    rng = random.Random(seed)
    while True:
        cuts = sorted(rng.sample(range(1, n), run_count - 1))
        bounds = [0] + cuts + [n]
        runs = [list(range(bounds[i], bounds[i + 1])) for i in range(run_count)]
        order = list(range(run_count))
        rng.shuffle(order)
        cand = [x for idx in order for x in runs[idx]]
        truth = list(range(n))
        if breakpoints(cand, truth) == (n - 1) - (n - run_count):
            return cand, truth


# ── n-gram overlap ────────────────────────────────────────────────────────


def test_bigram_values_match_published_fractions():
    assert round(14 / 29, 3) == 0.483
    assert round(23 / 29, 3) == 0.793
    cand, truth = runs_permutation(30, 16, seed=4)
    assert ngram_overlap(cand, truth, 2) == pytest.approx(14 / 29)
    assert round(ngram_overlap(cand, truth, 2), 3) == 0.483
    cand, truth = runs_permutation(30, 7, seed=1)
    assert ngram_overlap(cand, truth, 2) == pytest.approx(23 / 29)
    assert round(ngram_overlap(cand, truth, 2), 3) == 0.793


def test_identical_sequences_full_overlap():
    seq = list("abcdef")
    assert ngram_overlap(seq, seq, 2) == 1.0
    assert ngram_overlap(seq, seq, 3) == 1.0


def test_overlap_is_order_sensitive():
    truth = ["a", "b", "c"]
    cand = ["c", "b", "a"]  # reversed windows must not count
    assert ngram_overlap(cand, truth, 2) == 0.0


def test_overlap_rejects_non_permutation():
    with pytest.raises(ValidationError, match="^sequences must be permutations of the same distinct ids$"):
        ngram_overlap(["a", "b"], ["a", "c"], 2)


def test_overlap_needs_enough_steps():
    with pytest.raises(ValueError):
        ngram_overlap(["a", "b"], ["b", "a"], 3)


# ── breakpoints ───────────────────────────────────────────────────────────


def test_breakpoints_published_values():
    cand, truth = runs_permutation(30, 16, seed=4)
    assert breakpoints(cand, truth) == 29 - 14 == 15
    cand, truth = runs_permutation(30, 7, seed=1)
    assert breakpoints(cand, truth) == 29 - 23 == 6


def test_breakpoints_identity_and_reverse():
    truth = list(range(5))
    assert breakpoints(truth, truth) == 0
    assert breakpoints(list(reversed(truth)), truth) == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=50), st.randoms(use_true_random=False))
def test_breakpoints_bigram_identity(n, rng):
    truth = list(range(n))
    cand = list(truth)
    rng.shuffle(cand)
    matched = round(ngram_overlap(cand, truth, 2) * (n - 1))
    assert breakpoints(cand, truth) + matched == n - 1


# ── lcs ───────────────────────────────────────────────────────────────────


def test_lcs_identity():
    seq = list(range(30))
    assert lcs_length(seq, seq) == 30


def test_lcs_adjacent_swap_loses_one():
    truth = list(range(30))
    cand = list(truth)
    cand[10], cand[11] = cand[11], cand[10]
    assert lcs_length(cand, truth) == 29


def test_lcs_against_brute_force_small():
    import itertools

    truth = list(range(6))
    rng = random.Random(2)
    for _ in range(20):
        cand = list(truth)
        rng.shuffle(cand)
        best = 0
        for k in range(len(truth), 0, -1):
            for combo in itertools.combinations(range(len(cand)), k):
                sub = [cand[i] for i in combo]
                if sorted(sub) == sub:  # increasing == subsequence of truth
                    best = k
                    break
            if best:
                break
        assert lcs_length(cand, truth) == best


# ── kendall tau ───────────────────────────────────────────────────────────


def test_kendall_extremes():
    truth = list(range(10))
    assert kendall_tau(truth, truth) == 1.0
    assert kendall_tau(list(reversed(truth)), truth) == -1.0


def test_kendall_single_adjacent_swap_n4():
    truth = ["a", "b", "c", "d"]
    cand = ["b", "a", "c", "d"]
    assert kendall_tau(cand, truth) == pytest.approx((5 - 1) / 6)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.randoms(use_true_random=False))
def test_kendall_symmetry(n, rng):
    truth = list(range(n))
    cand = list(truth)
    rng.shuffle(cand)
    assert kendall_tau(cand, truth) == pytest.approx(kendall_tau(truth, cand))


# ── displacement ──────────────────────────────────────────────────────────


def test_displacement_cases():
    truth = list(range(30))
    assert displacement(truth, truth) == (0.0, 0)
    cand = truth[1:25] + [truth[0]] + truth[25:]
    assert displacement(cand, truth)[1] == 24
    assert displacement(["b", "a"], ["a", "b"]) == (1.0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.randoms(use_true_random=False))
def test_displacement_symmetry(n, rng):
    truth = list(range(n))
    cand = list(truth)
    rng.shuffle(cand)
    assert displacement(cand, truth) == displacement(truth, cand)


# ── raw slack ─────────────────────────────────────────────────────────────


def test_raw_slack_binary_and_gap():
    cand = ["b", "c", "a"]
    assert raw_slack(cand, [("a", "b")]) == 1.0
    assert raw_slack(cand, [("a", "b")], RAW_GAP) == 2.0
    assert raw_slack(cand, [("b", "c")]) == 0.0
    assert raw_slack(cand, []) == 0.0


def test_raw_slack_unknown_mode():
    with pytest.raises(ValueError, match="^unknown raw penalty mode 'gapp'$"):
        raw_slack(["a", "b"], [("b", "a")], "gapp")


def test_raw_slack_unknown_id():
    with pytest.raises(ValidationError, match="^constraint references unknown step id 'a' or 'z'$"):
        raw_slack(["a"], [("a", "z")])


# ── relabeling invariance ─────────────────────────────────────────────────


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=25), st.randoms(use_true_random=False))
def test_metrics_invariant_under_relabeling(n, rng):
    truth = list(range(n))
    cand = list(truth)
    rng.shuffle(cand)
    mapping = {i: f"step_{i}" for i in truth}
    r1 = sequence_report(cand, truth)
    r2 = sequence_report([mapping[x] for x in cand], [mapping[x] for x in truth])
    assert r1 == r2


# ── evaluate and formatting ───────────────────────────────────────────────


def test_evaluate_perfect_repair():
    truth = [f"s{i}" for i in range(10)]
    draft = list(truth)
    draft[2], draft[3] = draft[3], draft[2]
    d, r = evaluate(draft, truth, truth, [(truth[0], truth[1])])
    assert r.bigram_overlap == 1.0
    assert r.trigram_overlap == 1.0
    assert r.breakpoints == 0
    assert r.lcs == 10
    assert r.lcs_fraction == "10/10"
    assert r.kendall_tau == 1.0
    assert r.mean_displacement == 0.0
    assert r.max_displacement == 0
    assert r.raw_slack == 0.0
    assert d.breakpoints > 0


def test_evaluate_draft_equals_repaired():
    truth = [f"s{i}" for i in range(8)]
    draft = list(reversed(truth))
    d, r = evaluate(draft, draft, truth)
    assert d == r


def test_evaluate_rejects_id_mismatch():
    with pytest.raises(ValidationError, match="^sequences must be permutations of the same distinct ids$"):
        evaluate(["a", "b"], ["a", "b"], ["a", "c"])


def test_format_table_layout():
    truth = [f"s{i}" for i in range(5)]
    d, r = evaluate(truth, truth, truth)
    text = format_table({"draft": d, "repaired": r})
    lines = text.splitlines()
    assert lines[0].startswith("Sequence")
    assert "5/5" in text
    assert len(lines) == 4
