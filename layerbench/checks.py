"""Output checks of the benchmark operations.

Every check either recomputes a value apart from the program (SAX symbols,
PID errors, binomial bounds) or tests a property the method must have
(user-level reporting, budgets summing to epsilon).  None of them compares
against a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

import numpy as np

#: z-score of the binomial bound on a round's report count.  Group membership
#: is a PRF draw per user, so counts are binomial; six standard deviations
#: leave a false alarm probability below 1e-8 per round.
BINOMIAL_Z = 6.0

#: Segment means closer than this to a SAX breakpoint may round either way
#: between two correct implementations, so such series are not compared.
BREAKPOINT_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------- collection


def check_reports_once(reported: np.ndarray, reports: int, stray: int) -> None:
    """Every user id in ``[0, n)`` reported in exactly one round.

    ``reported[u]`` counts user ``u``'s aggregated reports (two reports of
    one user within one batch count once), ``reports`` is the number
    aggregated in all, and ``stray`` how many came in a batch holding an id
    outside ``[0, n)``.  With ``reports == n``, any repeated report leaves
    some user at zero.
    """
    n_users = reported.size
    require(stray == 0, f"{stray} reports came with user ids outside [0, {n_users})")
    require(reports == n_users, f"{reports} reports aggregated for {n_users} users")
    never = int(np.count_nonzero(reported == 0))
    repeated = int(np.count_nonzero(reported > 1))
    require(
        never == 0 and repeated == 0,
        f"{never} users never reported, {repeated} reported more than once",
    )


def expected_round_fractions(
    kinds: Sequence[str], fractions: Sequence[float]
) -> list[float]:
    """Population share of each round: Pa, Pb, Pc split over its levels, Pd."""
    group = {"length": 0, "subshape": 1, "expand": 2, "refine": 3, "refine_labeled": 3}
    levels = sum(1 for kind in kinds if kind == "expand")
    shares = []
    for kind in kinds:
        share = fractions[group[kind]]
        if kind == "expand":
            share /= levels
        shares.append(share)
    return shares


def check_round_sizes(
    rounds: Sequence[tuple[str, int]], n_users: int, fractions: Sequence[float]
) -> None:
    """Each round's report count lies within a binomial bound of its share."""
    kinds = [kind for kind, _ in rounds]
    require(
        kinds[:2] == ["length", "subshape"] and kinds[-1] == "refine"
        and set(kinds[2:-1]) == {"expand"},
        f"unexpected round sequence {kinds}",
    )
    for (kind, count), share in zip(rounds, expected_round_fractions(kinds, fractions)):
        mean = n_users * share
        bound = BINOMIAL_Z * math.sqrt(n_users * share * (1.0 - share))
        require(
            abs(count - mean) <= bound,
            f"{kind} round has {count} reports, expected {mean:.0f} +- {bound:.0f}",
        )


def check_top_shape(shapes_by_count: Sequence[str], templates: Sequence[str]) -> None:
    """The highest-count shape is the most popular template.

    Lower ranks are not checked.  De-duplication drops a template that lies
    within its distance threshold of a more frequent one and lets another
    candidate, not always a template, take the slot; the refinement round
    then credits that template's users, and users whose sequence was
    truncated, to the nearest surviving shape.
    """
    require(len(shapes_by_count) >= 1, "no shape was extracted")
    require(
        shapes_by_count[0] == templates[0],
        f"top shape {shapes_by_count[0]!r} is not the most popular template {templates[0]!r}",
    )


def check_user_level_budget(accounting: dict, epsilon: float) -> None:
    """Each disjoint population group spent exactly epsilon, so each user did."""
    spent = accounting.get("per_population", {})
    require(bool(spent), "the run recorded no privacy accounting")
    require(
        all(abs(value - epsilon) <= 1e-12 for value in spent.values()),
        f"population groups spent {spent}, expected {epsilon} each",
    )
    require(
        abs(accounting.get("user_level_epsilon", float("nan")) - epsilon) <= 1e-12
        and accounting.get("within_budget") is True,
        f"user-level epsilon {accounting.get('user_level_epsilon')} is not {epsilon}",
    )


# ------------------------------------------------------------------ SAX


def reference_sax(series, alphabet_size: int, segment_length: int) -> tuple[str, bool]:
    """Compressive SAX of one series, and whether a segment sits on a breakpoint.

    z-normalizes with the population standard deviation, averages segments
    of ``segment_length`` points (the remainder forms the last, shorter
    segment), cuts at the ``i/t`` quantiles of the standard normal from
    :class:`statistics.NormalDist`, and collapses repeated symbols.
    """
    values = np.asarray(series, dtype=float)
    std = float(values.std())
    z = (values - values.mean()) / std if std >= 1e-12 else np.zeros_like(values)
    starts = np.arange(0, z.size, segment_length)
    sizes = np.diff(np.append(starts, z.size))
    means = np.add.reduceat(z, starts) / sizes
    normal = statistics.NormalDist()
    cuts = [normal.inv_cdf(i / alphabet_size) for i in range(1, alphabet_size)]
    symbols = [chr(ord("a") + bisect.bisect_right(cuts, float(m))) for m in means]
    on_edge = any(abs(float(m) - c) < BREAKPOINT_TOLERANCE for m in means for c in cuts)
    collapsed = [s for i, s in enumerate(symbols) if i == 0 or s != symbols[i - 1]]
    return "".join(collapsed), on_edge


def check_sax(transformer, sample: Sequence, alphabet_size: int, segment_length: int) -> int:
    """The program's symbols equal the reference; returns how many were compared."""
    compared = 0
    for series in sample:
        expected, on_edge = reference_sax(series, alphabet_size, segment_length)
        if on_edge:
            continue
        got = "".join(transformer.transform(series))
        require(got == expected, f"CompressiveSAX gave {got!r}, reference {expected!r}")
        compared += 1
    require(compared > 0, "no sampled series could be compared")
    return compared


def check_labelled_shapes(estimates: Sequence[dict], n_classes: int, alphabet: str) -> None:
    """Every class has a shape, and each shape is a valid compressed sequence."""
    labels = {int(entry["label"]) for entry in estimates}
    require(
        labels == set(range(n_classes)),
        f"classes {sorted(set(range(n_classes)) - labels)} got no shape",
    )
    for entry in estimates:
        shape = entry["shape"]
        require(
            bool(shape) and set(shape) <= set(alphabet)
            and all(a != b for a, b in zip(shape, shape[1:])),
            f"{shape!r} is not a compressed shape over {alphabet!r}",
        )


# ------------------------------------------------------------- PatternLDP


def reference_pid_errors(series, kp: float, ki: float, kd: float, window: int) -> np.ndarray:
    """PID error magnitudes from first differences and a windowed sum."""
    values = np.asarray(series, dtype=float)
    step = np.diff(values)
    running = np.concatenate([[0.0], np.cumsum(step)])
    index = np.arange(1, step.size + 1)
    integral = running[index] - running[np.maximum(index - window, 0)]
    derivative = step - np.concatenate([[0.0], step[:-1]])
    errors = np.zeros(values.size)
    errors[1:] = np.abs(kp * step + ki * integral + kd * derivative)
    return errors


def check_pid_errors(scorer, sample: Sequence) -> None:
    for series in sample:
        expected = reference_pid_errors(
            series, scorer.kp, scorer.ki, scorer.kd, scorer.integral_window
        )
        got = np.asarray(scorer.errors(series), dtype=float)
        require(got.shape == expected.shape, f"PID errors shape {got.shape}")
        worst = float(np.max(np.abs(got - expected)))
        require(worst <= 1e-9, f"PID errors differ from the reference by {worst:.3g}")


def check_perturbed_series(
    result, length: int, epsilon: float, fraction: float, min_points: int
) -> None:
    """Budget, sampling and reconstruction properties of one perturbed series."""
    budgets = np.asarray(result.per_point_epsilon, dtype=float)
    require(
        abs(float(budgets.sum()) - epsilon) <= 1e-9 * max(1.0, epsilon),
        f"per-point budgets sum to {budgets.sum()!r}, not {epsilon}",
    )
    indices = np.asarray(result.indices)
    wanted = min(length, max(min_points, int(round(fraction * length))))
    require(indices.size == wanted, f"{indices.size} points sampled, expected {wanted}")
    require(bool(np.all(np.diff(indices) > 0)), "sampled indices do not increase")
    require(
        indices[0] == 0 and indices[-1] == length - 1,
        "sampled indices do not include both ends",
    )
    reconstructed = np.asarray(result.reconstructed, dtype=float)
    require(reconstructed.size == length, "reconstruction has the wrong length")
    require(
        bool(np.allclose(reconstructed[indices], result.perturbed_values, rtol=1e-12, atol=1e-12)),
        "reconstruction does not pass through the perturbed samples",
    )


def check_accuracy(accuracy: float, floor: float, what: str) -> None:
    require(accuracy >= floor, f"{what} accuracy {accuracy:.3f} is below {floor}")
