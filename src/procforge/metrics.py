"""Sequence-comparison metrics between a candidate ordering and ground
truth: n-gram overlap, breakpoints, longest common subsequence, Kendall
tau, displacement, and precedence-constraint slack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

RAW_BINARY = "binary"
RAW_GAP = "gap"


def _check_permutation(cand: list, truth: list) -> None:
    if len(cand) != len(truth) or set(cand) != set(truth) or len(set(cand)) != len(cand):
        raise ValidationError("sequences must be permutations of the same distinct ids")


def ngram_overlap(cand: list, truth: list, k: int) -> float:
    """Fraction of truth's length-k windows appearing as windows of cand.

    Matching is order-sensitive: a window must occur in the candidate as
    the same consecutive, same-direction run.
    """
    _check_permutation(cand, truth)
    n = len(truth)
    if n < k:
        raise ValueError(f"need at least {k} steps, got {n}")
    cand_windows = {tuple(cand[i : i + k]) for i in range(n - k + 1)}
    matched = sum(1 for i in range(n - k + 1) if tuple(truth[i : i + k]) in cand_windows)
    return matched / (n - k + 1)


def breakpoints(cand: list, truth: list) -> int:
    """Number of truth adjacencies not preserved (in order) by cand."""
    _check_permutation(cand, truth)
    n = len(truth)
    if n < 2:
        return 0
    successor = {cand[i]: cand[i + 1] for i in range(n - 1)}
    matched = sum(1 for i in range(n - 1) if successor.get(truth[i]) == truth[i + 1])
    return (n - 1) - matched


def lcs_length(cand: list, truth: list) -> int:
    """Length of the longest common subsequence (standard DP)."""
    _check_permutation(cand, truth)
    m = len(cand)
    prev = [0] * (m + 1)
    for i in range(1, m + 1):
        cur = [0] * (m + 1)
        ci = cand[i - 1]
        for j in range(1, m + 1):
            if ci == truth[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[m]


def kendall_tau(cand: list, truth: list) -> float:
    """Kendall tau-a over the two position assignments.

    All ids are distinct, so no tie handling is needed.
    """
    _check_permutation(cand, truth)
    n = len(cand)
    if n < 2:
        raise ValueError("kendall tau needs at least 2 steps")
    pos_truth = {v: i for i, v in enumerate(truth)}
    ranks = [pos_truth[v] for v in cand]
    concordant = discordant = 0
    for i in range(n):
        ri = ranks[i]
        for j in range(i + 1, n):
            if ranks[j] > ri:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def displacement(cand: list, truth: list) -> tuple[float, int]:
    """Per-id |position in cand - position in truth|: (mean, max)."""
    _check_permutation(cand, truth)
    pos_truth = {v: i for i, v in enumerate(truth)}
    deltas = [abs(i - pos_truth[v]) for i, v in enumerate(cand)]
    return sum(deltas) / len(deltas), max(deltas)


def raw_slack(cand: list, constraints, mode: str = RAW_BINARY) -> float:
    """Aggregate violation of precedence constraints, given as
    ``(predecessor, successor)`` id pairs, in an ordering.

    Binary mode counts violated constraints; gap mode sums how far each
    violated predecessor sits after its successor.  Zero means every
    constraint is satisfied.
    """
    pos = {v: i for i, v in enumerate(cand)}
    total = 0.0
    for pred, succ in constraints:
        if pred not in pos or succ not in pos:
            raise ValidationError(f"constraint references unknown step id {pred!r} or {succ!r}")
        deficit = pos[pred] - pos[succ]
        if deficit >= 0:
            total += 1.0 if mode == RAW_BINARY else float(deficit)
    return total


@dataclass(frozen=True)
class MetricsReport:
    n: int
    bigram_overlap: float
    trigram_overlap: float
    breakpoints: int
    lcs: int
    kendall_tau: float
    mean_displacement: float
    max_displacement: int
    raw_slack: float

    @property
    def lcs_fraction(self) -> str:
        return f"{self.lcs}/{self.n}"


def sequence_report(cand: list, truth: list, constraints=()) -> MetricsReport:
    mean_d, max_d = displacement(cand, truth)
    return MetricsReport(
        n=len(truth),
        bigram_overlap=ngram_overlap(cand, truth, 2),
        trigram_overlap=ngram_overlap(cand, truth, 3),
        breakpoints=breakpoints(cand, truth),
        lcs=lcs_length(cand, truth),
        kendall_tau=kendall_tau(cand, truth),
        mean_displacement=mean_d,
        max_displacement=max_d,
        raw_slack=raw_slack(cand, constraints),
    )


def evaluate(draft: list, repaired: list, truth: list, constraints=()) -> tuple[MetricsReport, MetricsReport]:
    """Full comparison of draft and repaired orderings against the truth.

    Raw slack is reported in binary mode: the number of violated constraints.
    """
    _check_permutation(draft, truth)
    _check_permutation(repaired, truth)
    return (
        sequence_report(draft, truth, constraints),
        sequence_report(repaired, truth, constraints),
    )


def format_table(rows: dict[str, MetricsReport]) -> str:
    """Aligned-column comparison table for a set of labelled reports."""
    headers = [
        "Sequence",
        "Bigram",
        "Trigram",
        "Breakpoints",
        "LCS",
        "Kendall tau",
        "Mean disp",
        "Max disp",
        "Raw slack",
    ]
    table = [headers]
    for label, r in rows.items():
        table.append(
            [
                label,
                f"{r.bigram_overlap:.3f}",
                f"{r.trigram_overlap:.3f}",
                str(r.breakpoints),
                r.lcs_fraction,
                f"{r.kendall_tau:.3f}",
                f"{r.mean_displacement:.3f}",
                str(r.max_displacement),
                f"{r.raw_slack:.1f}",
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))).rstrip())
    return "\n".join(lines) + "\n"
