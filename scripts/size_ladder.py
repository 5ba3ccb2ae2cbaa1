#!/usr/bin/env python3
"""Time the consistent kernel, its subspace, a derived map, a transformation space, a Kraus
dilation, a SWAP representation and subspace sums, intersections and trace kernels on a ladder
of (d_S, d_B) sizes.

On each rung the family is 4 Haar unitaries drawn from ``default_rng(1)``.  Under
``calls`` three calls of the kernel's layer are timed: ``OperatorSubspace`` on
the family's consistent-kernel basis (the constructor's Gram check),
``consistent_kernel`` itself and ``is_family_consistent`` on that kernel.  Under
``maps``, ``derive_map`` is timed on the span of that kernel and 1/N under the
family's first member, ``check_state_spanned`` on the same span, which a
derivation does not ask, and ``transformation_space`` on B(H_S) (x) 1/d_B under
the family.  Each call's result is checked before its time counts,
against the stacked constraints [T; T S_1; ...] built from
``perfbench/workloads.py``'s ``_trace_matrix``: a basis must have the dimension
of their null space and residual at most 1e-9 (``kernel_problem``), and the
verdict must pass with worst residual at most 1e-9.  The derived map's domain
must be span{1} (dimension 1), its defining relation must hold on the span's
basis with residual at most 1e-9, and its coordinates must lie within 1e-12 of
E pinv(U^dag R), the pseudo-inverse route (R = T B and E = T S_1 B on the
span's basis B, U the map's domain basis).  ``check_state_spanned`` must answer
True, and 1/N and the adjoint of every basis element must lie within 1e-10 of
the span.  The transformation space v + K must have the numpy rank of
[B_v B_K] and hold v and the kernel K within 1e-10.  Under ``dilations``, a
Kraus list of d_B operators on C^{d_S}, drawn from ``default_rng(1)``, is dilated by
``kraus_dilation``, and ``verify_representation`` grades a fresh copy of that
triple (so its derivation is timed too) against ``map_from_kraus`` of the list.
The dilation's derived map must lie within 1e-9 max(1, ||S||) of
S = sum_i conj(M_i) (x) M_i, built here with ``np.kron``, and the verdict must
pass.  ``swap_representation`` of that target on ``sampling.axis_grid_states(d_S)``
must pass ``verify_representation``, its derived map must meet the same bound
against S, and its joint subspace must have the dimension d_S^2 (d_S^2 + 1) / 2
of the symmetric sector of the doubled domain.  Under ``subspaces``, with K1 the
kernel above and K2 the consistent kernel of 4 more Haar unitaries drawn next
from the same generator, ``subspace_sum`` and ``subspace_intersection`` of K1 and
K2 and ``kernel_of_partial_trace`` of K1 + span{1/N} are timed.  The sum must
have the numpy rank of [B1 B2] (its singular values above rank_cut times the
largest) and lie within 1e-10 of the span of [B1 B2], and K1 and K2 within 1e-10
of it; the intersection must have dimension dim K1 + dim K2 - (that rank) and lie
within 1e-10 of K1 and of K2; the trace kernel must have the dimension of K1, lie
within 1e-10 of K1 and hold K1 within 1e-10.  A failed check records the problem
and no time.

A time is the timeit minimum, per call, of ``--repeat`` rounds of about 20 ms
(one call at least) with one BLAS thread; the memory is the ``tracemalloc``
peak of one more call, and ``minor_faults`` that call's minor page faults (the
``ru_minflt`` difference of ``getrusage(RUSAGE_SELF)``).  The fault count
depends on what the process freed before: a heap left warm by larger arrays
gives none.  A call whose first run takes longer than ``--budget`` seconds is
recorded as "over budget" with that time, and not repeated.  One JSON
document, with the machine details, goes to stdout:

    python3 scripts/size_ladder.py [--sizes 2x2 2x4 4x4 4x8] [--repeat 5] [--budget 10]
"""

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARIABLES:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from beyondcp import sampling  # noqa: E402
from beyondcp.config import DEFAULT_TOL  # noqa: E402
from beyondcp.consistency import (  # noqa: E402
    UnitaryFamily,
    consistent_kernel,
    is_family_consistent,
    transformation_space,
)
from beyondcp.dilations import (  # noqa: E402
    Representation,
    kraus_dilation,
    swap_representation,
    verify_representation,
)
from beyondcp.maps import derive_map, map_from_kraus  # noqa: E402
from beyondcp.operators import SpaceLayout, identity, tensor  # noqa: E402
from beyondcp.subspaces import (  # noqa: E402
    OperatorSubspace,
    check_state_spanned,
    full_operator_space,
    kernel_of_partial_trace,
    span_from_generators,
    subspace_intersection,
    subspace_sum,
)
from workloads import RESIDUAL_TOL, _trace_matrix, kernel_problem  # noqa: E402

DEFAULT_SIZES = ("2x2", "2x4", "4x4", "4x8")
MEMBERS = 4
FAMILY_SEED = 1
ROUND_S = 0.02  # a timeit round makes about this many seconds of calls
CONTAINMENT_TOL = 1e-10


def _size(text: str) -> tuple[int, int]:
    try:
        d_s, d_b = (int(part) for part in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D_SxD_B such as 4x8, got {text!r}") from None
    if d_s < 1 or d_b < 1:
        raise argparse.ArgumentTypeError(f"dimensions must be positive, got {text!r}")
    return d_s, d_b


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _budget(text: str) -> float:
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            names = (line.split(":", 1)[1] for line in info if line.startswith("model name"))
            model = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def _constraints(family: UnitaryFamily, d_s: int, d_b: int) -> tuple[np.ndarray, int]:
    """The stacked constraints [T; T S_1; ...] and the dimension of their null space."""
    t = _trace_matrix(d_s, d_b)
    a = np.vstack([t] + [t @ np.kron(u.entries.conj(), u.entries) for u in family.members])
    s = np.linalg.svd(a, compute_uv=False)
    return a, a.shape[1] - int(np.sum(s > 1e-9 * s[0]))


def _measure(call, check, repeat: int, budget: float) -> dict:
    """Run ``call`` once and check its result; time and trace it only if the check passes
    and the run kept to the budget."""
    start = time.perf_counter()
    result = call()
    first_s = time.perf_counter() - start
    problem = check(result)
    if problem is not None:
        return {"status": "failed", "problem": problem}
    if first_s > budget:
        return {"status": "over budget", "first_call_s": first_s}
    number = max(1, math.ceil(ROUND_S / max(first_s, 1e-9)))
    min_s = min(timeit.repeat(call, repeat=repeat, number=number)) / number
    tracemalloc.start()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "status": "ok",
        "min_s": min_s,
        "tracemalloc_peak_mb": peak / 2**20,
        "minor_faults": faults,
    }


def map_problem(phi, v: OperatorSubspace, a: np.ndarray, m: int) -> str | None:
    """Check a map derived from ``v`` under the first member against the constraint
    rows ``a``, whose first ``m`` rows are T and next ``m`` rows are T S_1."""
    if phi.domain.dim != 1:
        return f"derive_map: domain dimension {phi.domain.dim}, expected 1"
    b = v.basis_matrix()
    reduced, evolved = a[:m] @ b, a[m : 2 * m] @ b
    drift = phi.linear_operator() @ reduced - evolved
    residual = float(np.max(np.linalg.norm(drift, axis=0)))
    if not residual <= RESIDUAL_TOL:
        return f"derive_map: defining-relation residual {residual!r}"
    coordinates = phi.domain.basis_matrix().conj().T @ reduced
    oracle = evolved @ np.linalg.pinv(coordinates, rcond=DEFAULT_TOL.rank_cut)
    distance = float(np.linalg.norm(phi.coord_matrix - oracle))
    if not distance <= 1e-12:
        return f"derive_map: coordinates {distance!r} from the pinv route"
    return None


def spanned_problem(spanned: bool, v: OperatorSubspace) -> str | None:
    """Check ``check_state_spanned``'s answer on ``v``, which holds 1/N: True, with 1/N and
    the adjoint of every basis element within 1e-10 of the span."""
    if spanned is not True:
        return f"check_state_spanned: {spanned!r}, expected True"
    b, n = v.basis_matrix(), v.layout.total_dim
    # vec is column stacking, so b's (n, n, dim) Fortran-order view holds the matrices
    matrices = b.reshape(n, n, -1, order="F")
    adjoints = matrices.transpose(1, 0, 2).conj().reshape(n * n, -1, order="F")
    distance = _distance(np.hstack([adjoints, np.eye(n).reshape(n * n, 1) / n]), b)
    if not distance <= CONTAINMENT_TOL:
        return f"check_state_spanned: an adjoint or 1/N lies {distance!r} outside the span"
    return None


def dilation_problem(rep, s: np.ndarray, kind: str = "kraus_dilation") -> str | None:
    """Check a representation's derived map against the superoperator ``s`` of a Kraus list."""
    distance = float(np.linalg.norm(rep.derived_map().linear_operator() - s))
    if not distance <= RESIDUAL_TOL * max(1.0, float(np.linalg.norm(s))):
        return f"{kind}: derived map {distance!r} from sum conj(M) (x) M"
    return None


def swap_problem(rep, target, s: np.ndarray) -> str | None:
    """Check a SWAP representation of the full-domain ``target``: its verdict, its derived
    map against ``s``, and the symmetric-sector dimension d^2 (d^2 + 1) / 2 of its subspace."""
    problem = verdict_problem(verify_representation(rep, target))
    problem = problem or dilation_problem(rep, s, "swap_representation")
    dim, sector = rep.subspace.dim, target.dim**2 * (target.dim**2 + 1) // 2
    if problem is None and dim != sector:
        problem = f"swap_representation: joint subspace dimension {dim}, expected {sector}"
    return problem


def verdict_problem(verdict) -> str | None:
    if not verdict.passed:
        return f"verify_representation: not passed, max residual {verdict.max_residual!r}"
    return None


def _distance(x: np.ndarray, y: np.ndarray) -> float:
    """The largest distance of a column of x from the span of the orthonormal columns of y."""
    return float(np.max(np.linalg.norm(x - y @ (y.conj().T @ x), axis=0), initial=0.0))


def subspace_problem(kind: str, basis: np.ndarray, expected_dim: int, *pairs) -> str | None:
    """Check a subspace call's orthonormal ``basis``: its dimension, then each pair (x, y)
    of column blocks, y orthonormal, for x within 1e-10 of the span of y."""
    if basis.shape[1] != expected_dim:
        return f"{kind}: dimension {basis.shape[1]}, expected {expected_dim}"
    for x, y in pairs:
        distance = _distance(x, y)
        if not distance <= CONTAINMENT_TOL:
            return f"{kind}: a column lies {distance!r} outside the span it must lie in"
    return None


def _stacked_rank(b1: np.ndarray, b2: np.ndarray) -> tuple[int, np.ndarray]:
    """The numpy rank of [B1 B2] (its singular values above rank_cut times the largest) and
    an orthonormal basis of its span."""
    u, s, _ = np.linalg.svd(np.hstack([b1, b2]), full_matrices=False)
    rank = int(np.sum(s > DEFAULT_TOL.rank_cut * s[0])) if s.size else 0
    return rank, u[:, :rank]


def transformation_problem(w, v: OperatorSubspace, kernel: OperatorSubspace) -> str | None:
    """Check ``transformation_space(v, family)``, v + K for the family's kernel K: the numpy
    rank of [B_v B_K], with v and K within 1e-10 of it."""
    bv, bk, b = v.basis_matrix(), kernel.basis_matrix(), w.basis_matrix()
    rank, _ = _stacked_rank(bv, bk)
    return subspace_problem("transformation_space", b, rank, (bv, b), (bk, b))


def _subspaces(k1, k2, v, repeat: int, budget: float) -> dict:
    b1, b2 = k1.basis_matrix(), k2.basis_matrix()
    rank, reference = _stacked_rank(b1, b2)  # reference: an orthonormal basis of [B1 B2]'s span

    def sum_check(w):
        b = w.basis_matrix()
        return subspace_problem("subspace_sum", b, rank, (b, reference), (b1, b), (b2, b))

    def intersection_check(w):
        b, dim = w.basis_matrix(), k1.dim + k2.dim - rank
        return subspace_problem("subspace_intersection", b, dim, (b, b1), (b, b2))

    def kernel_check(w):
        b = w.basis_matrix()
        return subspace_problem("kernel_of_partial_trace", b, k1.dim, (b, b1), (b1, b))

    calls = {
        "subspace_sum": (lambda: subspace_sum(k1, k2), sum_check),
        "subspace_intersection": (lambda: subspace_intersection(k1, k2), intersection_check),
        "kernel_of_partial_trace": (lambda: kernel_of_partial_trace(v), kernel_check),
    }
    return {name: _measure(*pair, repeat, budget) for name, pair in calls.items()}


def _dilations(d_s: int, d_b: int, repeat: int, budget: float) -> dict:
    kraus = sampling.random_kraus_channel(d_s, d_b, np.random.default_rng(FAMILY_SEED))
    s = sum(np.kron(m.entries.conj(), m.entries) for m in kraus)
    rep, target = kraus_dilation(kraus), map_from_kraus(kraus)
    omega = sampling.axis_grid_states(d_s)

    def verify():  # a fresh triple, whose derivation is not yet cached
        fresh = Representation(rep.bath_dim, rep.unitary, rep.subspace, rep.target_domain)
        return verify_representation(fresh, target)

    return {
        "kraus_dilation": _measure(
            lambda: kraus_dilation(kraus), lambda r: dilation_problem(r, s), repeat, budget
        ),
        "verify_representation": _measure(verify, verdict_problem, repeat, budget),
        "swap_representation": _measure(
            lambda: swap_representation(target, omega),
            lambda r: swap_problem(r, target, s),
            repeat,
            budget,
        ),
    }


def rung(d_s: int, d_b: int, repeat: int, budget: float) -> dict:
    rng = np.random.default_rng(FAMILY_SEED)
    layout = SpaceLayout((d_s, d_b))
    family = UnitaryFamily(tuple(sampling.haar_unitary((d_s, d_b), rng) for _ in range(MEMBERS)))
    a, expected_dim = _constraints(family, d_s, d_b)
    kernel = consistent_kernel(family, layout)
    basis = np.array(kernel.basis_matrix())
    second = UnitaryFamily(tuple(sampling.haar_unitary((d_s, d_b), rng) for _ in range(MEMBERS)))

    def basis_check(kind):
        return lambda v: kernel_problem(kind, v.basis_matrix(), a, expected_dim)

    def verdict_check(verdict):
        if not (verdict.consistent and verdict.worst_residual <= RESIDUAL_TOL):
            residual = verdict.worst_residual
            return f"is_family_consistent: {verdict.consistent}, residual {residual!r}"
        return kernel_problem("is_family_consistent", kernel.basis_matrix(), a, expected_dim)

    calls = {
        "subspace": (lambda: OperatorSubspace(layout, basis), basis_check("subspace")),
        "consistent_kernel": (lambda: consistent_kernel(family, layout), basis_check("kernel")),
        "is_family_consistent": (lambda: is_family_consistent(kernel, family), verdict_check),
    }
    u = family.members[0]
    v = subspace_sum(kernel, span_from_generators([identity(layout) / layout.total_dim]))
    bath = identity(d_b) / d_b
    product = span_from_generators([tensor(b, bath) for b in full_operator_space(d_s).basis])
    return {
        "dims": [d_s, d_b],
        "kernel_dim": expected_dim,
        "calls": {name: _measure(*pair, repeat, budget) for name, pair in calls.items()},
        "maps": {
            "derive_map": _measure(
                lambda: derive_map(v, u),
                lambda phi: map_problem(phi, v, a, d_s * d_s),
                repeat,
                budget,
            ),
            "check_state_spanned": _measure(
                lambda: check_state_spanned(v), lambda ok: spanned_problem(ok, v), repeat, budget
            ),
            "transformation_space": _measure(
                lambda: transformation_space(product, family),
                lambda w: transformation_problem(w, product, kernel),
                repeat,
                budget,
            ),
        },
        "dilations": _dilations(d_s, d_b, repeat, budget),
        "subspaces": _subspaces(kernel, consistent_kernel(second, layout), v, repeat, budget),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=_size, nargs="+", default=list(map(_size, DEFAULT_SIZES)))
    parser.add_argument("--repeat", type=_positive_int, default=5)
    parser.add_argument("--budget", type=_budget, default=10.0, help="seconds per call")
    args = parser.parse_args()
    doc = {
        "machine": _machine(),
        "family": f"{MEMBERS} Haar unitaries per rung from numpy.random.default_rng({FAMILY_SEED})",
        "timing": (
            f"per call: timeit minimum of {args.repeat} rounds of about {ROUND_S} s; "
            "tracemalloc peak and minor page faults of one call"
        ),
        "budget_s": args.budget,
        "rungs": [rung(d_s, d_b, args.repeat, args.budget) for d_s, d_b in args.sizes],
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
