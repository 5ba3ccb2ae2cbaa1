"""The three benchmark workloads: inputs, timed ops and result oracles.

Every workload is a closed loop with one client and no think time.  A
workload is built once per process from the workload seed; ``cycle()`` then
returns the ops of one pass as ``Op(kind, call, check)``.  ``call`` is the
timed call into the public ``beyondcp`` API and ``check(result)`` is its
oracle, run outside the timed interval: it returns ``None`` when the result
is right and a short description of the problem otherwise.

The workloads call ``beyondcp`` through module attributes (``bc.derive_map``)
so that the traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import beyondcp as bc
from beyondcp import catalog, cli, sampling, serialization

RESIDUAL_TOL = 1e-9  # the property bundle's tolerance, used by every oracle


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# Recorded beside each result.  ``mix`` is one pass of the cycle.
DESCRIPTIONS = {
    "cli": {
        "why": (
            "What a CLI user waits for: ops take 4-130 ms at (2,2), almost all "
            "argparse, JSON, jsonschema, catalog and per-Operator overhead; it "
            "reads input documents (parse_*) and writes reports (emit_*)."
        ),
        "mix": (
            "one in-process run_cli call per command, all six subcommands: the "
            "seven catalog topics, violations, check-consistency, derive-map, "
            "analyze-map (transpose, repolarizer), represent (swap, kraus) and "
            "one malformed map document (exit 2)"
        ),
        "seed": (
            "draws the controlled-phase time, the repolarizer epsilon, the Gibbs "
            "witness parameters and the --seed passed to every command"
        ),
    },
    "trials": {
        "why": (
            "The seed-pinned property trial: thousands of tiny Operator "
            "constructions and 4x4 partial traces per op, no large linear "
            "algebra; a batched core and running each self-check once show "
            "here first."
        ),
        "mix": (
            "one trial per op: a random consistent (2,2) pair with three "
            "derive_map calls, swap_representation + verify_representation on a "
            "random map whose sampled positive domain spans the space, and a CP "
            "contractivity control"
        ),
        "seed": "trial i draws its inputs from numpy.random.default_rng([seed, i])",
    },
    "kernel": {
        "why": (
            "Few large spans: SVDs of stacked N^2-column constraint matrices and "
            "OperatorSubspace.contains over large bases, the opposite use of the "
            "subspaces layer to trials."
        ),
        "mix": (
            "consistent_kernel for two 4-member Haar families at (d_S,d_B)=(2,4), "
            "consistent_kernel for one at (4,4), witness_extension_consistent of "
            "the Gibbs subspace at d_w=4 under the 16-member controlled-phase "
            "family (consistent) and under a 4-member Haar (2,2) family "
            "(inconsistent).  The (2,4) kernel runs twice so that the median "
            "falls inside one op kind rather than on a boundary between two."
        ),
        "seed": "draws the Haar families",
        "notes": [
            "(4,8) is excluded: one consistent_kernel call takes about 53 s with "
            "one BLAS thread, longer than a whole run; (4,4) runs the same code "
            "path.",
            "A first consistent_kernel call at (2,4) takes about 0.97 s with 2 "
            "BLAS threads; that is one-time OpenBLAS start-up, not steady state "
            "(later calls take 0.03-0.05 s).  Set-up runs one warm-up op of each "
            "kind, so setup_s carries such costs and the latencies do not.",
        ],
    },
}


# -- independent numpy references ------------------------------------------------


def _ptrace_bath(x: np.ndarray, d_s: int, d_b: int) -> np.ndarray:
    """Tr_B of an operator on S (x) B, straight from the index convention."""
    return np.einsum("ibjb->ij", x.reshape(d_s, d_b, d_s, d_b))


def _trace_matrix(d_s: int, d_b: int) -> np.ndarray:
    """Matrix of Tr_B on column-stacked vectors: (d_s^2, N^2)."""
    n = d_s * d_b
    t = np.zeros((d_s * d_s, n * n))
    for i in range(d_s):
        for j in range(d_s):
            for b in range(d_b):
                t[i + d_s * j, (i * d_b + b) + n * (j * d_b + b)] = 1.0
    return t


def _trace_norm(x: np.ndarray) -> float:
    return float(np.linalg.svd(x, compute_uv=False).sum())


# -- cli -------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue()


class CliWorkload:
    """A fixed cycle of in-process ``run_cli`` commands over files written once."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        t = float(rng.uniform(0.1, 2 * math.pi - 0.1))
        eps = float(rng.uniform(0.05, 0.45))
        theta = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(0.1, 2.0))
        cli_seed = str(int(rng.integers(1, 2**31)))

        workdir.mkdir(parents=True, exist_ok=True)

        def write(name: str, doc: dict) -> str:
            path = workdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        subspace = write("gibbs.json", serialization.emit_subspace(catalog.gibbs_subspace()))
        unitary = write(
            "cphase.json", serialization.emit_operator(catalog.controlled_phase_unitary(t))
        )
        family = write(
            "family.json",
            {
                "members": [
                    serialization.emit_operator(u)
                    for u in catalog.controlled_phase_family().members
                ]
            },
        )
        transpose = write("transpose.json", {"kind": "builtin", "name": "transpose"})
        repolarizer = write("repolarizer.json", serialization.emit_map(catalog.repolarizer(eps)))
        kraus = write(
            "depolarizer_kraus.json",
            {
                "kind": "kraus",
                "dims": [2],
                "operators": [
                    serialization.emit_operator(k)["matrix"]
                    for k in catalog.depolarizer_kraus(eps)
                ],
            },
        )
        malformed = write("malformed.json", {"kind": "matrix", "dims": [2]})

        def argv(*words: str) -> list[str]:
            return [*words, "--seed", cli_seed]

        def passing(*names: str) -> dict[str, bool]:
            return dict.fromkeys(names, True)

        # (name, argv, expected exit code, expected passed flag of every verdict)
        self.commands = [
            (
                "catalog_gibbs",
                argv("catalog", "gibbs", "--theta", repr(theta), "--beta", repr(beta)),
                0,
                passing(
                    "closed_form_matches_exponential",
                    "family_span_dimension_6",
                    "span_matches_pauli_basis",
                    "state_spanned_verified",
                ),
            ),
            (
                "catalog_example1",
                argv("catalog", "example1", "--t", repr(t)),
                0,
                passing(
                    "derived_map_matches_closed_form",
                    "kraus_completeness",
                    "kraus_extension_matches_on_domain",
                    "kraus_extension_cp",
                ),
            ),
            (
                "catalog_transpose",
                argv("catalog", "transpose"),
                0,
                passing(
                    "subspace_dimension_10",
                    "swap_subspace_matches_printed_basis",
                    "derived_map_transposes",
                    "not_cp_with_choi_eigenvalue_minus_one",
                ),
            ),
            (
                "catalog_repolarizer",
                argv("catalog", "repolarizer", "--epsilon", repr(eps)),
                0,
                passing(
                    "swap_subspace_matches_printed_basis",
                    "positive_domain_boundary_at_epsilon",
                    "positivity_counterexample_eigenvalue",
                    "depolarizer_inverts_repolarizer",
                ),
            ),
            *(
                (
                    f"catalog_witness_{witness}",
                    argv("catalog", "witness", "--bath-witness", witness),
                    0,
                    passing("factorization_gap_matches_expected"),
                )
                for witness in ("bell", "classical", "product")
            ),
            (
                "violations",
                argv("violations", "--epsilon", "0.1", "--pairs", "5"),
                1,
                {
                    "trace_norm_contractivity": False,
                    "relative_entropy_monotonicity": False,
                    "cptp_control_contractive": True,
                },
            ),
            (
                "check_consistency",
                argv("check-consistency", "--subspace", subspace, "--unitary", unitary, "--family", family),
                0,
                passing("unitary_consistent", "state_spanned_verified", "family_consistent"),
            ),
            (
                "derive_map",
                argv("derive-map", "--subspace", subspace, "--unitary", unitary),
                0,
                passing("unitary_consistent", "trace_and_hermiticity_preserving"),
            ),
            (
                "analyze_transpose",
                argv("analyze-map", "--map", transpose, "--cp", "--choi", "--positivity", "64", "--positive-domain", "12"),
                1,
                {
                    **passing("trace_preserving", "hermiticity_preserving"),
                    "completely_positive": False,
                    **passing("positive_on_sampled_states", "positive_domain_sampled"),
                },
            ),
            (
                "analyze_repolarizer",
                argv("analyze-map", "--map", repolarizer, "--cp", "--positivity", "64"),
                1,
                {
                    **passing("trace_preserving", "hermiticity_preserving"),
                    "completely_positive": False,
                    "positive_on_sampled_states": False,
                },
            ),
            (
                "represent_swap",
                argv("represent", "--map", repolarizer, "--method", "swap"),
                0,
                passing(
                    "representation_consistent",
                    "reduced_subspace_matches_domain",
                    "derived_map_matches_target",
                ),
            ),
            (
                "represent_kraus",
                argv("represent", "--map", kraus, "--method", "kraus"),
                0,
                passing("unitary_dilation", "derived_map_matches_kraus"),
            ),
            ("malformed_map", argv("analyze-map", "--map", malformed, "--cp"), 2, {}),
        ]
        self._first_report: dict[str, str] = {}

    def _checker(self, name: str, code: int, verdicts: dict[str, bool]):
        def check(result: tuple[int, str]) -> str | None:
            got_code, stdout = result
            if got_code != code:
                return f"{name}: exit code {got_code}, expected {code}"
            first = self._first_report.setdefault(name, stdout)
            if stdout != first:
                return f"{name}: report differs from the first report for the same argv"
            if code == 2:
                return None if stdout == "" else f"{name}: input error printed a report"
            got = {v["name"]: v["passed"] for v in json.loads(stdout)["verdicts"]}
            if got != verdicts:
                return f"{name}: verdicts {got}, expected {verdicts}"
            return None

        return check

    def cycle(self) -> list[Op]:
        return [
            Op(name, lambda argv=argv: _run_cli(argv), self._checker(name, code, verdicts))
            for name, argv, code, verdicts in self.commands
        ]


# -- trials ----------------------------------------------------------------------


class TrialResult(NamedTuple):
    v: Any
    u: Any
    phi: Any
    phi_again: Any
    u_phase: Any
    psi: Any
    verdict: Any
    channel_out: tuple[np.ndarray, np.ndarray]


def _kraus_subspace(rho_b):
    """Product-form subspace B(H_S) (x) rho_b."""
    return bc.span_from_generators(
        [bc.tensor(b, rho_b) for b in bc.full_operator_space(2).basis]
    )


def _random_hp_tp_map(g: np.ndarray):
    """Hermiticity- and trace-preserving map from a corrected random Choi form."""
    d = 2
    k = (g + g.conj().T) / 2
    choi = bc.operator(k, (d, d))
    marginal = bc.partial_trace(choi, keep=0).entries
    k = k - np.kron(marginal - np.eye(d), np.eye(d) / d)
    domain = bc.full_operator_space(d)
    cols = []
    for b in domain.basis:
        lifted = bc.operator(np.kron(b.entries.T, np.eye(d)) @ k, (d, d))
        cols.append(bc.partial_trace(lifted, keep=1).entries.reshape(-1, order="F"))
    return bc.SubsystemMap(domain, np.column_stack(cols), provenance="random hp/tp")


def _spanning_map(cp_kraus, g: np.ndarray, sample_seed: int):
    """Mix a random CP map with a random HP/TP map, shrinking the non-CP part
    until the centre is positive and the sampled positive domain spans."""
    cp = bc.map_from_kraus(cp_kraus)
    raw = _random_hp_tp_map(g)
    s = 1.0
    center = bc.identity(2) / 2
    while s > 1e-7:
        phi = (1.0 - s) * cp + s * raw
        if phi.apply(center).min_eigenvalue() > bc.DEFAULT_TOL.psd_slack:
            sample = bc.sample_positive_domain(phi, 8, sample_seed)
            if sample.span_dim == 4:
                return phi, sample
        s /= 2.0
    return cp, bc.sample_positive_domain(cp, 8, sample_seed)


class TrialsWorkload:
    """One op is one trial of the seed-pinned property bundle."""

    def __init__(self, seed: int):
        self.seed = seed
        self.index = 0
        self.gibbs = catalog.gibbs_subspace()
        self.gibbs_states = [g for g in self.gibbs.generators if g.is_density(1e-9)]

    def _inputs(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        return {
            "rho_b": sampling.random_density(2, rng),
            "u": sampling.haar_unitary((2, 2), rng),
            "perm": rng.permutation(4),
            "t": float(rng.uniform(0, 2 * np.pi)),
            "weights": rng.dirichlet(np.ones(len(self.gibbs_states))),
            "cp_kraus": sampling.random_kraus_channel(2, 3, rng),
            "g": rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            "sample_seed": int(rng.integers(2**32)),
            "channel_kraus": sampling.random_kraus_channel(2, int(rng.integers(1, 5)), rng),
            "r1": sampling.random_density(2, rng),
            "r2": sampling.random_density(2, rng),
        }

    def _trial(self, x: dict) -> TrialResult:
        v = _kraus_subspace(x["rho_b"])
        phi = bc.derive_map(v, x["u"])
        mixed = [v.generators[i] for i in x["perm"]]
        mixed[0] = mixed[0] + 0.5 * mixed[1]
        phi_again = bc.derive_map(bc.span_from_generators(mixed, v.tol), x["u"])
        u_phase = catalog.controlled_phase_unitary(x["t"])
        psi = bc.derive_map(self.gibbs, u_phase)
        target, sample = _spanning_map(x["cp_kraus"], x["g"], x["sample_seed"])
        rep = bc.swap_representation(target, list(sample.members))
        verdict = bc.verify_representation(rep, target)
        channel = bc.map_from_kraus(x["channel_kraus"])
        out = (channel.apply(x["r1"]).entries, channel.apply(x["r2"]).entries)
        return TrialResult(v, x["u"], phi, phi_again, u_phase, psi, verdict, out)

    def _check(self, x: dict, r: TrialResult) -> str | None:
        u = r.u.entries
        for g in r.v.generators:
            lhs = r.phi.apply(bc.operator(_ptrace_bath(g.entries, 2, 2), 2)).entries
            rhs = _ptrace_bath(u @ g.entries @ u.conj().T, 2, 2)
            if np.linalg.norm(lhs - rhs) > RESIDUAL_TOL:
                return "commutation"
        l1, l2 = r.phi.linear_operator(), r.phi_again.linear_operator()
        if np.linalg.norm(l2 - l1) / max(1.0, np.linalg.norm(l1)) > RESIDUAL_TOL:
            return "uniqueness"
        if not (
            r.phi.is_trace_preserving(RESIDUAL_TOL)
            and r.phi.is_hermiticity_preserving(RESIDUAL_TOL)
        ):
            return "preservation"
        joint = sum(w * s.entries for w, s in zip(x["weights"], self.gibbs_states))
        up = r.u_phase.entries
        lhs = r.psi.apply(bc.operator(_ptrace_bath(joint, 2, 2), 2)).entries
        rhs = _ptrace_bath(up @ joint @ up.conj().T, 2, 2)
        if np.linalg.norm(lhs - rhs) > RESIDUAL_TOL:
            return "brute-force"
        if not r.verdict.passed:
            return "round-trip"
        din = _trace_norm(x["r1"].entries - x["r2"].entries)
        dout = _trace_norm(r.channel_out[0] - r.channel_out[1])
        if din > 0 and dout / din > 1 + RESIDUAL_TOL:
            return "contractivity"
        return None

    def cycle(self) -> list[Op]:
        x = self._inputs(self.index)
        self.index += 1
        return [
            Op(
                "trial",
                lambda: self._trial(x),
                lambda r: None if (p := self._check(x, r)) is None else f"trial: {p}",
            )
        ]


# -- kernel ----------------------------------------------------------------------


class KernelWorkload:
    """Large-span consistency ops, each checked against a numpy reference."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def haar_family(dims):
            return bc.UnitaryFamily(tuple(sampling.haar_unitary(dims, rng) for _ in range(4)))

        gibbs = catalog.gibbs_subspace()
        self.ops = [
            self._kernel_op(haar_family((2, 4)), bc.SpaceLayout((2, 4))),
            self._kernel_op(haar_family((4, 4)), bc.SpaceLayout((4, 4))),
            self._witness_op("witness_gibbs", gibbs, catalog.controlled_phase_family(), True),
            self._witness_op("witness_haar", gibbs, haar_family((2, 2)), False),
            self._kernel_op(haar_family((2, 4)), bc.SpaceLayout((2, 4))),
        ]

    @staticmethod
    def _kernel_op(family, layout) -> Op:
        d_s, d_b = layout.dims
        t = _trace_matrix(d_s, d_b)
        a = np.vstack(
            [t] + [t @ np.kron(u.entries.conj(), u.entries) for u in family.members]
        )
        s = np.linalg.svd(a, compute_uv=False)
        expected_dim = a.shape[1] - int(np.sum(s > 1e-9 * s[0]))
        kind = f"kernel_{d_s}x{d_b}"

        def check(kernel) -> str | None:
            return kernel_problem(kind, kernel.basis_matrix(), a, expected_dim)

        return Op(kind, lambda: bc.consistent_kernel(family, layout), check)

    @staticmethod
    def _witness_op(kind, subspace, family, expected: bool) -> Op:
        def check(verdict) -> str | None:
            if verdict.consistent != expected:
                return f"{kind}: consistent={verdict.consistent}, expected {expected}"
            return None

        return Op(kind, lambda: bc.witness_extension_consistent(subspace, family, 4), check)

    def cycle(self) -> list[Op]:
        return self.ops


def kernel_problem(kind: str, basis: np.ndarray, a: np.ndarray, expected_dim: int) -> str | None:
    """Compare a returned kernel basis (vectorised columns) with the null space
    of the stacked constraints ``a``: equal dimension and zero residual."""
    if basis.shape[1] != expected_dim:
        return f"{kind}: dimension {basis.shape[1]}, reference {expected_dim}"
    if basis.shape[1] and np.max(np.linalg.norm(a @ basis, axis=0)) > RESIDUAL_TOL:
        return f"{kind}: a basis element violates the stacked constraints"
    return None


def build(name: str, seed: int, workdir: Path):
    if name == "cli":
        return CliWorkload(seed, workdir)
    if name == "trials":
        return TrialsWorkload(seed)
    if name == "kernel":
        return KernelWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
