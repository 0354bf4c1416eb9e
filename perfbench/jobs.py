"""Workloads of the dstarlab benchmark: job rounds, set-up and output checks.

A job is a ``dstarlab`` command line (without ``--cache-dir`` and
``--no-timestamp``, which the runner adds).  Jobs come in rounds: a round
holds every job kind of its workload once, in an order drawn from the seed,
with the free parameters drawn from narrow windows.  A run measures whole
rounds, so runs on different seeds do nearly the same work and their spread
measures the machine rather than the draw.  Every job a generator can draw
has a reference output in ``references.json``, frozen by ``freeze.py``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Cold u-polynomial solves.  Each pattern's n window is centred where its solve
# takes about 0.45 s on a 2-vCPU AMD EPYC VM (CPython 3.11, Fraction backend),
# so that cheap patterns run at large n and costly ones at small n: the round
# spans n = 30..57 and all three solver cases without one job dominating.  A
# round takes about 4.5 s, so a 20 s run makes five rounds (the floor in
# MIN_ROUNDS), or six on a host 10% faster; with jobs of near-equal cost the
# median and the tail barely move between the two.
DIST_CENTERS = {
    (2, 3): 31, (2, 4): 32, (3, 4): 36,                # case 1: 2 <= i < j <= 4
    (1, 2): 56, (1, 3): 43, (1, 4): 37, (1, 5): 34,    # case 2: a leaf endpoint
    (2, 2): 34, (3, 3): 40, (4, 4): 46,                # case 3: equal degrees
}

# Keys solved into the disk cache during set-up; every timed job is a hit.
# A round holds CACHED_SMALL_PER_ROUND hits on a small entry and one on a
# large one, as a cache of mixed entry sizes serves them: the median is a
# small hit (about 7 ms) and the tail a large one (about 16 ms).  With hits of
# one size the tail percentile (ten of some 1300 hits beyond it) was set by
# the rarest pauses of the host and moved by 19-26% between seeds; the large
# hits sit above the small hits' slowest 0.5% and number about 28 in a run, so
# the tail lands inside them.  (1, 2) is the cheapest pattern to solve, which
# keeps the set-up short.
CACHED_SMALL, CACHED_LARGE = ((1, 2), 48), ((1, 2), 80)
CACHED_SMALL_PER_ROUND = 100

# A growth round (five mu jobs and one lambda job) takes about 5.8 s on the
# box above, so a 20 s run ends after its fourth round (the floor in
# MIN_ROUNDS) unless the host is 14% faster.  A lambda job at K = 3 as well
# made the round 6.3 s, and a run then flipped between three rounds and four.
GROWTH_PATTERNS = (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)
GROWTH_ORDER = 200
GROWTH_JET_ORDER = 48
# The extrapolation fits the last 120 exact means (asymptotics._increment_limit).
# At an ext-order of 120 or less the fit reaches down to n = 2 and its error
# bar exceeds the value; from 144 on it starts at n >= 24 and the error is
# below 1% of mu, so the reference check on the extrapolated value can fail.
# A job whose extrapolated error grows past MAX_EXT_REL_ERROR of mu fails too.
EXT_ORDERS = 144, 148, 152
MAX_EXT_REL_ERROR = 0.01
LAMBDA_KS = (4,)
LAMBDA_ALPHAS = "-0.5", "-1.0"

CONJECTURE_MAX_N = 14, 15, 16, 17
GNP_SEEDS = range(8)

# OEIS A000055 (free trees) and A000081 (rooted trees), index n.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629)
A000081 = (0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811, 235381)

WORKLOADS = ("dist", "growth", "enumerate", "dist-cached")

# Least rounds of a timed run.  A run measures whole rounds for at least
# --seconds, so on a host slower than usual it would end a round early, and
# with four or five rounds of unequal jobs one round fewer moves the tail
# percentile to a different kind of job (on enumerate from p64 to the median).
# These floors are the round counts a 20 s run makes on the box above (on
# dist-cached, enough rounds for twenty large hits), so a slow host lengthens
# the run instead of cutting a round.
MIN_ROUNDS = {"dist": 5, "growth": 4, "enumerate": 4, "dist-cached": 20}

# Rounds of a traced run.  Fixed, so that every count in it repeats exactly
# for a given seed; each pass takes roughly ten seconds on the box above.
TRACE_ROUNDS = {"dist": 2, "growth": 2, "enumerate": 2, "dist-cached": 6}


def _dist(pattern, n):
    return ("dist", "--pattern", f"{pattern[0]},{pattern[1]}", "--n", str(n))


def _mu(pattern, ext_order):
    return ("mu", "--pattern", f"{pattern[0]},{pattern[1]}", "--method", "both",
            "--order", str(GROWTH_ORDER), "--ext-order", str(ext_order),
            "--jet-order", str(GROWTH_JET_ORDER))


def _lambda(k, alpha):
    return ("lambda", "--K", str(k), f"--alpha={alpha}", "--order", str(GROWTH_ORDER),
            "--jet-order", str(GROWTH_JET_ORDER))


def _gnp(seed):
    return ("gnp", "--n", "1000", "--p", "0.5", "--trials", "1", "--seed", str(seed))


def slots(workload: str) -> list:
    """The jobs of one round, each slot a list of the alternatives it draws from."""
    if workload == "dist":
        return [[_dist(p, n) for n in (c - 1, c, c + 1)] for p, c in DIST_CENTERS.items()]
    if workload == "dist-cached":
        return ([[_dist(*CACHED_SMALL)]] * CACHED_SMALL_PER_ROUND
                + [[_dist(*CACHED_LARGE)]])
    if workload == "growth":
        return ([[_mu(p, e) for e in EXT_ORDERS] for p in GROWTH_PATTERNS]
                + [[_lambda(k, a) for a in LAMBDA_ALPHAS] for k in LAMBDA_KS])
    if workload == "enumerate":
        conjecture = [[("conjecture", "--min-n", "2", "--max-n", str(m))]
                      for m in CONJECTURE_MAX_N]
        return conjecture + [[("verify", "--max-n", "12", "--jmax", "6")],
                             [("counts", "--max-n", "16", "--method", "both")],
                             [_gnp(s) for s in GNP_SEEDS]]
    raise ValueError(f"unknown workload {workload!r}")


def domain(workload: str) -> list:
    """Every job the workload's generator can draw, each once."""
    return list(dict.fromkeys(job for alternatives in slots(workload) for job in alternatives))


def rounds(workload: str, seed: int):
    """The workload's endless stream of rounds; the same seed, the same stream.

    A round draws one job from every slot and shuffles them."""
    rng = random.Random(f"{workload}/{seed}")
    choices = slots(workload)
    while True:
        jobs = [rng.choice(alternatives) for alternatives in choices]
        rng.shuffle(jobs)
        yield jobs


def take_rounds(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(rounds(workload, seed), count))


def job_key(job) -> str:
    return " ".join(job)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# -- output checks -----------------------------------------------------


def _check_dist(res, ref):
    for field in ("trees", "histogram", "mean", "variance"):
        if res.get(field) != ref[field]:
            return f"{field} differs from the reference"
    return None


def _check_mu(res, ref):
    if abs(res["value"] - ref["value"]) > res["error"] + ref["error"]:
        return f"mu {res['value']!r} outside {ref['value']!r} +- errors"
    ext, ext_ref = res.get("extrapolation"), ref["extrapolation"]
    if ext is None or abs(ext["value"] - ext_ref["value"]) > ext["error"] + ext_ref["error"]:
        return "extrapolated mu outside the reference +- errors"
    if ext["error"] > MAX_EXT_REL_ERROR * abs(ext["value"]):
        return f"extrapolated mu error {ext['error']!r} above 1% of the value"
    return None


def _check_lambda(res, ref):
    tol = res["error"] + ref["error"]
    # the upper end also carries the uncertainty of the unseen mass
    tol_up = tol + (res["sum_mu_error"] + ref["sum_mu_error"]) * float(ref["K"]) ** ref["alpha"]
    if abs(res["lower"] - ref["lower"]) > tol or abs(res["upper"] - ref["upper"]) > tol_up:
        return "lambda bracket differs from the reference beyond its errors"
    return None


def _check_counts(res, ref):
    if res["rows"] != ref["rows"] or res.get("series_matches_enumeration") is not True:
        return "count table differs from the reference"
    for row in res["rows"]:
        n = row["n"]
        if (row["t"], row["t_enum"]) != (A000055[n], A000055[n]) or (
            row["r"], row["r_enum"]) != (A000081[n], A000081[n]):
            return f"count at n={n} is not A000055/A000081"
    return None


def _check_conjecture(res, ref):
    if res["totals"] != ref["totals"]:
        return "tree totals differ from the reference"
    if any(res["totals"][str(n)] != A000055[n] for n in range(res["n_lo"], res["n_hi"] + 1)):
        return "tree totals are not A000055"
    if res["violations"] or not res["holds"]:
        return "conjecture violated"
    if res["equalities"] != [{"n": 2, "level_seq": [0, 1]}]:
        return "equalities other than the two-vertex path"
    return None


def _check_verify(res, ref):
    if res["mismatches"] or res["patterns"] != ref["patterns"]:
        return f"{len(res['mismatches'])} oracle mismatches"
    return None


def _check_gnp(res, ref):
    if not res["all_hold"] or res["excluded"] != ref["excluded"]:
        return "R >= D fails on a G(n, p) draw"
    if len(res["trials"]) != len(ref["trials"]):
        return "trial count differs"
    for got, want in zip(res["trials"], ref["trials"]):
        if got.keys() != want.keys():
            return "trial fields differ"
        for k, v in want.items():
            if isinstance(v, float) and not math.isclose(got[k], v, rel_tol=1e-9):
                return f"trial {k} {got[k]!r} differs from {v!r}"
            if not isinstance(v, float) and got[k] != v:
                return f"trial {k} differs"
    return None


CHECKS = {
    "dist": _check_dist,
    "mu": _check_mu,
    "lambda": _check_lambda,
    "counts": _check_counts,
    "conjecture": _check_conjecture,
    "verify": _check_verify,
    "gnp": _check_gnp,
}


def check(job, code, stdout: str, ref: dict | None, *, expect_hits: int = 0, cold=None):
    """None when the job passed, else the reason it failed.

    ``expect_hits`` is the cache-hit count the job's JSON must report; ``cold``
    is the result block of the same job solved cold, which a hit must equal.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if doc.get("cache", {}).get("hits") != expect_hits:
        return f"cache hits {doc.get('cache', {}).get('hits')}, expected {expect_hits}"
    if ref is None:
        return "no reference output for this job"
    res = doc.get("result")
    if cold is not None and res != cold:
        return "cached result differs from the cold result"
    try:
        return CHECKS[job[0]](res, ref)
    except (KeyError, TypeError) as exc:
        return f"output lacks a field: {exc!r}"
