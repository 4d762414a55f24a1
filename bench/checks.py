"""Output checks for the benchmark, computed without calling qbcsim.

Every expectation here is recomputed from the protocol's counting rules and
the code definitions, so a fault in the program cannot hide behind the same
fault in its own formulas.  Each check takes the report dicts a workload wrote
(as parsed from the JSON files) and returns a list of failure messages; an
empty list means the check passed.

Two kinds of result come out of a batch:

- exact facts (an invariant that must be zero, a check that may never be the
  one that rejects): each breach is counted per trial, as a failed trial;
- Monte Carlo estimates: pooled over the run and compared against the closed
  form with a four-standard-error band, the convention of the release
  criteria.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SIGMA = 4.0
SIZE_BANDS = ("C5-size", "U4-size")
U3_CHECKS = ("U3a", "U3b", "U3c")
INVARIANTS = ("d_soundness", "lie_b_annihilation", "c5_empty", "u5_parity")

# Per-index membership probabilities at theta = pi/4, by Bob's class for the
# index: an honest, a, b or c announcement on the measured set, or the
# delayed set.  Bob's photon result q' differs from Alice's value bit q only
# when the photon sat in the other basis' branch (probability 1/4), and then
# Alice's register outcome is that other basis.  When q' = q (3/4), her
# register outcome equals Bob's basis with probability 2/3.
# - M (Alice claims "measured" when the announced value is not q): 1/4 for
#   honest and b (value kept), 3/4 for a and c (value flipped), 1/2 on the
#   delayed set (announced value is a coin).
# - D (claimed, and register outcome equals the announced basis): never for
#   honest; a: 3/4 * 2/3; b: 1/4 * 1; c: 3/4 * 1/3; delayed: 1/2 * 1/2.
P_MEASURED = {"honest": 0.25, "a": 0.75, "b": 0.25, "c": 0.75, "delayed": 0.5}
P_DETECTED = {"honest": 0.0, "a": 0.5, "b": 0.25, "c": 0.25, "delayed": 0.25}


def half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def lie_counts(s: int, s_prime: int, f: tuple) -> tuple:
    """|L_a|, |L_b|, |L_c| from f_x = (|L_x| + s'/4) / s, rounded half-up."""
    return tuple(half_up(fx * s - s_prime / 4.0) for fx in f)


def set_size_moments(s: int, s_prime: int, counts: tuple) -> dict:
    """(mean, variance) of |M|, |D| and |M - D| for an honest run.

    Given Bob's classes, each index joins a set independently, so the sizes
    are sums of Bernoulli variables; D is a subset of M, so an index is in
    M - D with probability P(M) - P(D).
    """
    na, nb, nc = counts
    sizes = {"honest": s - s_prime - na - nb - nc, "a": na, "b": nb, "c": nc,
             "delayed": s_prime}
    out = {}
    for metric, prob in (
        ("ratio_M", P_MEASURED),
        ("ratio_D", P_DETECTED),
        ("ratio_MminusD", {k: P_MEASURED[k] - P_DETECTED[k] for k in P_MEASURED}),
    ):
        mean = sum(sizes[k] * prob[k] for k in sizes)
        var = sum(sizes[k] * prob[k] * (1.0 - prob[k]) for k in sizes)
        out[metric] = (mean, var)
    return out


def binding_bound(distance: int) -> float:
    """Survival bound (2/3)^(d/2) of a fake unveil against distance d."""
    return (2.0 / 3.0) ** (distance / 2.0)


@functools.lru_cache(maxsize=4)
def _messages(k: int) -> np.ndarray:
    """Every nonzero message of k bits, one per row."""
    return ((np.arange(1, 1 << k, dtype=np.int32)[:, None] >> np.arange(k)) & 1).astype(np.int32)


def dense_min_distance(rows) -> int:
    """Minimum weight over all nonzero codewords, by a dense matrix product."""
    g = np.asarray(rows, dtype=np.int32)
    return int(((_messages(g.shape[0]) @ g) & 1).sum(axis=1).min())


# ---------------------------------------------------------------------------
# per-trial exact facts


def failed_trials(report: dict, allowed_stages: tuple, invariants: tuple,
                  extraction: bool = False) -> int:
    """Trials of one batch that broke an exact fact, at most its trial count.

    A rejection at a stage outside allowed_stages, a nonzero invariant, or a
    missing extraction each count one trial.  The report holds per-batch
    totals only, so two breaches in one trial count twice, up to the cap.
    """
    trials = report["trials"]
    bad = sum(n for stage, n in report["caught"].items() if stage not in allowed_stages)
    bad += sum(report["violations"][key] for key in invariants)
    if extraction:
        bad += trials - report["stats"]["bob_guess_accuracy"]["count"]
    return min(trials, bad)


# ---------------------------------------------------------------------------
# pooled Monte Carlo checks


def _pooled_mean(reports: list, metric: str) -> tuple:
    count = sum(r["stats"][metric]["count"] for r in reports)
    if count == 0:
        return None, 0
    total = sum(r["stats"][metric]["mean"] * r["stats"][metric]["count"]
                for r in reports if r["stats"][metric]["count"])
    return total / count, count


def check_lie_counts(reports: list, s: int, s_prime: int, f: tuple) -> list:
    expected = list(lie_counts(s, s_prime, f))
    return [
        f"lie counts {r['config']['lie_counts']} != half-up {expected}"
        for r in reports if r["config"]["lie_counts"] != expected
    ]


def check_set_sizes(reports: list, s: int, s_prime: int, f: tuple) -> list:
    """Pooled set-size ratios within 4 sigma of the counting formulas."""
    failures = []
    for metric, (mean, var) in set_size_moments(s, s_prime, lie_counts(s, s_prime, f)).items():
        observed, n = _pooled_mean(reports, metric)
        band = SIGMA * math.sqrt(var / n) / s
        if abs(observed - mean / s) > band:
            failures.append(
                f"{metric} {observed:.6f} outside {mean / s:.6f} +- {band:.6f} over {n} trials"
            )
    return failures


def check_guess_accuracy(reports: list, cap: int) -> list:
    """Early-extraction accuracy within 0.5 +- 4 sigma over the first `cap` trials.

    The true leak is about 0.51, so the band must stay well above 0.01: the
    cap keeps it there however fast the program becomes.
    """
    used, n = [], 0
    for r in reports:
        if n >= cap:
            break
        used.append(r)
        n += r["stats"]["bob_guess_accuracy"]["count"]
    observed, n = _pooled_mean(used, "bob_guess_accuracy")
    if n == 0:
        return ["no extraction to score"]
    band = SIGMA * math.sqrt(0.25 / n)
    if abs(observed - 0.5) > band:
        return [f"guess accuracy {observed:.4f} outside 0.5 +- {band:.4f} over {n} trials"]
    return []


def check_cheat_rate(reports: list, distance: int) -> list:
    """Fake-unveil success at or below (2/3)^(d/2) plus 4 sigma."""
    observed, n = _pooled_mean(reports, "cheat_success_rate")
    if n == 0:
        return ["no cheat attempt to score"]
    p = max(observed, 1e-3)
    bound = binding_bound(distance) + SIGMA * math.sqrt(p * (1.0 - p) / n)
    if observed > bound:
        return [f"cheat success {observed:.4f} above bound {bound:.4f} over {n} trials"]
    return []


def check_code_distance(reports: list, distance: int) -> list:
    return [
        f"code shape {shape} has distance {shape[2]}, expected {distance}"
        for r in reports for shape in r["code_shapes"] if shape[2] != distance
    ]


def check_accept_count(reports: list) -> list:
    """Accepted unveils plus every recorded rejection make up the batch."""
    failures = []
    for r in reports:
        accepted = round(r["stats"]["unveil_accept_rate"]["mean"] * r["trials"])
        rejected = sum(r["caught"].values())
        if accepted + rejected != r["trials"]:
            failures.append(
                f"{accepted} accepted + {rejected} rejected != {r['trials']} trials"
            )
    return failures


# ---------------------------------------------------------------------------
# traced-run checks


def check_codes(codes: list) -> list:
    """Stated distance of every built code against a dense recomputation.

    codes holds (rows, stated distance) pairs.
    """
    failures = []
    for rows, stated in codes:
        actual = dense_min_distance(rows)
        if actual != stated:
            failures.append(
                f"({len(rows[0])},{len(rows)}) code states d={stated}, dense scan finds {actual}"
            )
    return failures


def check_identical(untraced: bytes, traced: bytes, label: str) -> list:
    if untraced != traced:
        return [f"{label}: traced report differs from the untraced one"]
    return []


def check_equal(name: str, observed, expected) -> list:
    if observed != expected:
        return [f"{name}: observed {observed}, expected {expected}"]
    return []
