"""Command-line interface: deterministic JSON/CSV reports for every workflow.

Exit codes: 0 when every verdict passes, 1 when a check failed or a violation
was demonstrated (still a successful computation, distinguished in the
report), 2 for input errors, an input too ill-conditioned for a construction
to pass its own self-check (``SelfCheckError``) included.  All randomness is
driven by --seed; the environment variable BEYONDCP_SEED overrides the flag.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import catalog
from .config import DEFAULT_TOL, SelfCheckError, ToleranceConfig
from .consistency import (
    consistent_kernel,
    is_family_consistent,
    witness_factorization_gap,
)
from .dilations import (
    kraus_dilation,
    swap_representation,
    verify_representation,
)
from .maps import (
    _bloch_form,
    _derive,
    _map_of,
    _positive_domain_mask,
    choi_matrix,
    compose,
    derive_map,
    identity_map,
    is_cp,
    map_from_kraus,
    map_residual,
    positivity_scan,
    sample_positive_domain,
)
from .operators import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    bell_projector,
    identity,
    operator,
    tensor,
)
from .serialization import (
    Report,
    _map_and_kraus_operators,
    _parse_operator_list,
    _report_text,
    emit_map,
    emit_operator,
    emit_report,
    emit_representation,
    emit_subspace,
    inputs_digest,
    parse_map,
    parse_operator,
    parse_subspace,
    parse_unitary_family,
)
from .subspaces import (
    _keep_indices,
    check_state_spanned,
    span_from_generators,
    subspace_leq,
    subspaces_equal,
)

__all__ = ["run_cli", "main"]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    """A seed for numpy's generators, which refuse negative ones."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


# A relative rank cut nearer to rounding noise keeps noise directions: the catalog
# constructions fail their checks from about 2 epsilons down; the floor keeps 8x on that.
_RANK_CUT_FLOOR = 16 * sys.float_info.epsilon


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="random seed (BEYONDCP_SEED overrides)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_cut)
    parser.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.residual_tol)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondcp",
        description="Consistent-subspace toolkit for reduced open-system dynamics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check-consistency", help="consistency of a subspace with unitaries")
    p.add_argument("--subspace", required=True, help="subspace JSON file")
    p.add_argument("--unitary", required=True, help="unitary operator JSON file")
    p.add_argument("--family", help="optional unitary-family JSON file")
    _common_flags(p)

    p = sub.add_parser("derive-map", help="derive the reduced map of a consistent pair")
    p.add_argument("--subspace", required=True)
    p.add_argument("--unitary", required=True)
    _common_flags(p)

    p = sub.add_parser("analyze-map", help="trace/Hermiticity, Choi, CP, positivity")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--choi", action="store_true", help="embed the Choi matrix")
    p.add_argument("--cp", action="store_true", help="complete-positivity verdict")
    p.add_argument(
        "--positivity", type=_positive_int, metavar="N", help="scan N states for positivity"
    )
    p.add_argument(
        "--positive-domain", type=_positive_int, metavar="N", help="sample N positive-domain states"
    )
    _common_flags(p)

    p = sub.add_parser("represent", help="build a dilation representation for a map")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--method", choices=("swap", "kraus"), required=True)
    p.add_argument("--omega", help="JSON file with positive-domain generator operators")
    _common_flags(p)

    p = sub.add_parser("catalog", help="reproduce a built-in construction")
    p.add_argument(
        "topic", choices=("gibbs", "example1", "transpose", "repolarizer", "witness")
    )
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--t", type=float, default=math.pi / 4)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument(
        "--bath-witness",
        choices=("bell", "classical", "product"),
        default="bell",
        help="bath-witness state for the witness construction",
    )
    _common_flags(p)

    p = sub.add_parser("violations", help="demonstrate inequality violations")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--pairs", type=_positive_int, default=5)
    _common_flags(p)

    return parser


# -- handlers -----------------------------------------------------------------


def _subspace_and_unitary(args, tol: ToleranceConfig):
    """The documents of --subspace and --unitary, as the digest's payload, and what they hold."""
    payload = {"subspace": _load_json(args.subspace), "unitary": _load_json(args.unitary)}
    return payload, parse_subspace(payload["subspace"], tol), parse_operator(payload["unitary"])


def _cmd_check_consistency(args, tol: ToleranceConfig, seed: int) -> Report:
    payload, v, u = _subspace_and_unitary(args, tol)
    family = None
    if args.family:
        payload["family"] = _load_json(args.family)
        family = parse_unitary_family(payload["family"], tol)
    report = Report("check-consistency", inputs_digest(payload), seed, tol)
    derivation = _derive(v, [u], _keep_indices(v.layout, 1))  # derive-map's, self-check too
    report.check(
        "unitary_consistent",
        derivation.residual,
        subspace_dim=v.dim,
        kernel_dim=derivation.kernel.shape[1],
    )
    report.add("state_spanned_verified", check_state_spanned(v))
    if family is not None:
        fam_verdict = is_family_consistent(v, family)
        kernel = consistent_kernel(family, v.layout, tol)
        # The kernel inclusion is reported, not enforced: it holds for maximal
        # subspaces with an interior state but can fail for smaller ones.
        report.add(
            "family_consistent",
            fam_verdict.consistent,
            fam_verdict.worst_residual,
            members=len(family.members),
            consistent_kernel_dim=kernel.dim,
            consistent_kernel_within_subspace=subspace_leq(kernel, v),
        )
    return report


def _cmd_derive_map(args, tol: ToleranceConfig, seed: int) -> Report:
    payload, v, u = _subspace_and_unitary(args, tol)
    report = Report("derive-map", inputs_digest(payload), seed, tol)
    derivation = _derive(v, [u], _keep_indices(v.layout, 1))  # derive_map's one decision
    if derivation.maps is None:
        report.check(
            "unitary_consistent", derivation.residual, reason="reduced map is not well defined"
        )
        return report
    phi = _map_of(derivation, v, u)  # refuses the zero subspace
    report.check("unitary_consistent", derivation.residual, state_spanned=check_state_spanned(v))
    report.add(
        "trace_and_hermiticity_preserving",
        phi.is_trace_preserving() and phi.is_hermiticity_preserving(),
    )
    report.artifacts["map"] = emit_map(phi)
    return report


def _cmd_analyze_map(args, tol: ToleranceConfig, seed: int) -> Report:
    map_doc = _load_json(args.map_file)
    phi = parse_map(map_doc, tol)
    report = Report("analyze-map", inputs_digest({"map": map_doc}), seed, tol)
    report.add("trace_preserving", phi.is_trace_preserving())
    report.add("hermiticity_preserving", phi.is_hermiticity_preserving())
    if args.choi:
        report.artifacts["choi"] = emit_operator(choi_matrix(phi))
    if args.cp:
        verdict = is_cp(phi)
        report.add(
            "completely_positive",
            verdict.cp,
            min_choi_eigenvalue=verdict.min_choi_eigenvalue,
            choi_hermitian=verdict.choi_hermitian,
        )
    if args.positivity is not None:
        scan = positivity_scan(phi, args.positivity, seed)
        details = {"summary": scan.summary(), "n_tested": scan.n_tested}
        if scan.violation_found:
            details["counterexample"] = emit_operator(scan.counterexample)
            details["min_eigenvalue"] = scan.min_eigenvalue
        if scan.n_tested == 0:  # the domain holds no state: fail closed, not a pass on no samples
            details["undecided"] = True
        report.add(
            "positive_on_sampled_states", scan.n_tested > 0 and not scan.violation_found, **details
        )
    if args.positive_domain is not None:
        sample = sample_positive_domain(phi, args.positive_domain, seed)
        report.add(
            "positive_domain_sampled",
            bool(sample.members),
            span_dim=sample.span_dim,
            members=len(sample.members),
        )
    return report


def _cmd_represent(args, tol: ToleranceConfig, seed: int) -> Report:
    map_doc = _load_json(args.map_file)
    phi, ops = _map_and_kraus_operators(map_doc, tol)
    payload = {"map": map_doc, "method": args.method}
    if args.method == "kraus":
        if ops is None:
            raise ValueError('represent --method kraus requires a map file of kind "kraus"')
        report = Report("represent", inputs_digest(payload), seed, tol)
        rep = kraus_dilation(ops, tol)
        report.check("unitary_dilation", rep.unitary.unitarity_residual(), bath_dim=rep.bath_dim)
        report.check("derived_map_matches_kraus", map_residual(rep.derived_map(), phi))
        report.artifacts["representation"] = emit_representation(rep)
        return report
    if args.omega:
        omega_doc = _load_json(args.omega)
        payload["omega"] = omega_doc
        message = 'omega file requires an "operators" array'
        omega = _parse_operator_list(omega_doc, "operators", message)
    else:
        sample = sample_positive_domain(phi, 12, seed)
        if not sample.members:
            raise ValueError(
                "no positive-domain states found to build the swap representation; "
                "supply --omega"
            )
        omega = list(sample.members)
    report = Report("represent", inputs_digest(payload), seed, tol)
    rep = swap_representation(phi, omega)
    verdict = verify_representation(rep, phi)
    report.check("representation_consistent", verdict.consistency_residual)
    report.check("reduced_subspace_matches_domain", verdict.domain_residual)
    report.check("derived_map_matches_target", verdict.map_residual)
    report.artifacts["representation"] = emit_representation(rep)
    return report


def _catalog_gibbs(args, tol: ToleranceConfig, seed: int, report: Report) -> None:
    witness = catalog.gibbs_state_closed_form(catalog.GibbsParams(args.theta, args.beta))
    thetas, betas = np.linspace(-2.0, 2.0, 7), np.linspace(0.1, 2.0, 7)
    closed = catalog._gibbs_closed_forms([catalog.GibbsParams(th, b) for th in thetas for b in betas])
    direct = catalog._gibbs_grid(thetas, betas, tol.residual_tol)
    # each norm reads its difference in column-major order, as Operator.hs_norm does
    worst = max([0.0, *map(np.linalg.norm, (closed - direct).swapaxes(-1, -2).reshape(-1, 16))])
    report.check("closed_form_matches_exponential", worst, 1e-10, grid="7x7")
    family = catalog.gibbs_subspace(tol)
    report.add("family_span_dimension_6", family.dim == 6, dimension=family.dim)
    printed = span_from_generators(
        [catalog._PAULI_PAIRS[p] for p in ("II", "XI", "ZI", "IX", "XX", "ZX")], tol
    )
    report.add("span_matches_pauli_basis", subspaces_equal(family, printed))
    report.add("state_spanned_verified", check_state_spanned(family, witness))
    report.artifacts["state"] = emit_operator(witness)
    report.artifacts["subspace"] = emit_subspace(family)


def _catalog_example1(args, tol: ToleranceConfig, seed: int, report: Report) -> None:
    family = catalog.gibbs_subspace(tol)
    u = catalog.controlled_phase_unitary(args.t)
    derived = derive_map(family, u)
    closed = catalog.controlled_phase_map(args.t, tol)
    report.check("derived_map_matches_closed_form", map_residual(derived, closed), t=args.t)
    e1, e2 = catalog.controlled_phase_kraus(args.t)
    completeness = (e1.dagger() @ e1 + e2.dagger() @ e2 - identity(2)).hs_norm()
    report.check("kraus_completeness", completeness, 1e-12)
    kraus_map = map_from_kraus([e1, e2], tol)
    on_domain = max(
        (kraus_map.apply(b) - closed.apply(b)).hs_norm() for b in closed.domain.basis
    )
    report.check("kraus_extension_matches_on_domain", on_domain)
    cp = is_cp(kraus_map)
    report.add(
        "kraus_extension_cp",
        cp.cp,
        min_choi_eigenvalue=cp.min_choi_eigenvalue,
    )
    report.artifacts["map"] = emit_map(derived)
    report.artifacts["kraus"] = [emit_operator(e1), emit_operator(e2)]


def _catalog_transpose(args, tol: ToleranceConfig, seed: int, report: Report) -> None:
    phi = catalog.transpose_map(tol)
    printed = catalog.transpose_subspace(tol)
    report.add("subspace_dimension_10", printed.dim == 10, dimension=printed.dim)
    rep = swap_representation(phi, catalog.axis_states())
    report.add(
        "swap_subspace_matches_printed_basis", subspaces_equal(rep.subspace, printed)
    )
    report.check("derived_map_transposes", map_residual(rep.derived_map(), phi))
    cp = is_cp(phi)
    report.add(
        "not_cp_with_choi_eigenvalue_minus_one",
        (not cp.cp) and abs(cp.min_choi_eigenvalue + 1.0) <= 1e-9,
        abs(cp.min_choi_eigenvalue + 1.0),
        min_choi_eigenvalue=cp.min_choi_eigenvalue,
    )
    report.artifacts["subspace"] = emit_subspace(printed)
    report.artifacts["map"] = emit_map(phi)


def _smallest_checkable_epsilon(tol: ToleranceConfig) -> float:
    """Below this epsilon the repolarizer's swap representation may fail its self-check.

    The self-check's rounding error grows like machine epsilon / epsilon^2 (at
    most about 3 times that in a sweep of 1500 epsilons up to 3e-3), against
    residual_tol; the bound keeps a factor of 4 on it.
    """
    if not tol.residual_tol > 0:
        return math.inf
    return 2.0 * math.sqrt(sys.float_info.epsilon / tol.residual_tol)


# w, the half-width of the bracket that certifies the repolarizer's boundary: far above the
# rounding of its states' eigenvalues (about 1e-16), far below the residual's 1e-8 bound.
_BOUNDARY_BRACKET = 2.0**-40


def _catalog_repolarizer(args, tol: ToleranceConfig, seed: int, report: Report) -> None:
    eps = args.epsilon
    catalog._require_checkable_epsilon("--epsilon", eps, _smallest_checkable_epsilon(tol), tol)
    phi = catalog.repolarizer(eps, tol)
    printed = catalog.repolarizer_subspace(eps, tol)
    rep = swap_representation(phi, catalog.axis_states(radius=eps))
    report.add(
        "swap_subspace_matches_printed_basis", subspaces_equal(rep.subspace, printed)
    )
    # The boundary on each axis is where the mask flips on (1 + (sign t) sigma) / 2, and the
    # root of |b + t M n| = 1 + 2 psd_slack gives it in closed form.  Along a line the mask's
    # inside set is an interval (its tests bound minimum eigenvalues, concave in t), so one
    # mask call that reads inside at root - w and outside at root + w on every axis puts each
    # flip within w of its root; any other reading fails the check (README, Conventions).
    sigmas = np.array([PAULI_X.entries, PAULI_X.entries, PAULI_Z.entries, PAULI_Z.entries])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    m, b = _bloch_form(phi)
    mn = signs[:, None] * m.T[[0, 0, 2, 2]]  # M n, one row per axis
    a2, a1 = np.sum(mn * mn, axis=1), mn @ b
    root = (np.sqrt(a1**2 - a2 * (b @ b - (1 + 2 * tol.psd_slack) ** 2)) - a1) / a2
    t = signs[:, None] * (root[:, None] + [-_BOUNDARY_BRACKET, _BOUNDARY_BRACKET])
    states = (PAULI_I.entries + t[..., None, None] * sigmas[:, None]) * 0.5
    inside = _positive_domain_mask(phi, states.reshape(-1, 2, 2)).reshape(4, 2)
    confirmed = np.all(inside[:, 0] & ~inside[:, 1])  # inside at root - w, outside at root + w
    worst = float(np.max(np.abs(root - eps))) + _BOUNDARY_BRACKET if confirmed else math.inf
    report.check("positive_domain_boundary_at_epsilon", worst, 1e-8)
    scan = positivity_scan(phi, 64, seed)
    expected = -(1 - eps) / (2 * eps)
    found = scan.min_eigenvalue if scan.violation_found else float("nan")
    report.add(
        "positivity_counterexample_eigenvalue",
        scan.violation_found and abs(found - expected) <= 1e-9,
        abs(found - expected) if scan.violation_found else None,
        expected=expected,
        summary=scan.summary(),
    )
    inverse_residual = map_residual(
        compose(catalog.depolarizer(eps, tol), phi), identity_map((2,), tol)
    )
    report.check("depolarizer_inverts_repolarizer", inverse_residual, 1e-12)
    report.artifacts["subspace"] = emit_subspace(printed)
    report.artifacts["map"] = emit_map(phi)


def _catalog_witness(args, tol: ToleranceConfig, seed: int, report: Report) -> None:
    rho_s = identity((2,)) / 2
    if args.bath_witness == "bell":
        rho_bw = bell_projector()
        expected = 0.75
    elif args.bath_witness == "classical":
        entries = np.diag([0.5, 0.0, 0.0, 0.5])
        rho_bw = operator(entries, (2, 2))
        expected = 0.5
    else:
        rho_bw = tensor(identity((2,)) / 2, identity((2,)) / 2)
        expected = 0.0
    gap = witness_factorization_gap(rho_s, rho_bw, tol)
    report.check(
        "factorization_gap_matches_expected",
        abs(gap.mismatch - expected),
        1e-10,
        mismatch=gap.mismatch,
        expected=expected,
        bath_witness=args.bath_witness,
    )
    report.artifacts["evolved_true"] = emit_operator(gap.evolved_true)
    report.artifacts["evolved_factored"] = emit_operator(gap.evolved_factored)


def _cmd_catalog(args, tol: ToleranceConfig, seed: int) -> Report:
    payload = {
        "topic": args.topic,
        "theta": args.theta,
        "beta": args.beta,
        "t": args.t,
        "epsilon": args.epsilon,
        "bath_witness": args.bath_witness,
    }
    report = Report(f"catalog {args.topic}", inputs_digest(payload), seed, tol)
    handler = {
        "gibbs": _catalog_gibbs,
        "example1": _catalog_example1,
        "transpose": _catalog_transpose,
        "repolarizer": _catalog_repolarizer,
        "witness": _catalog_witness,
    }[args.topic]
    handler(args, tol, seed, report)
    return report


def _cmd_violations(args, tol: ToleranceConfig, seed: int) -> Report:
    eps = args.epsilon
    floor = catalog._smallest_state_checkable_epsilon(tol)
    catalog._require_checkable_epsilon("--epsilon", eps, floor, tol)
    payload = {"epsilon": eps, "pairs": args.pairs}
    report = Report("violations", inputs_digest(payload), seed, tol)
    ratios, uhlmann_ratios, monotone, control_ratios = catalog._violation_sample(
        eps, args.pairs, np.random.default_rng(seed), tol
    )
    contractive = all(r <= 1 + tol.residual_tol for r in ratios)
    report.add(
        "trace_norm_contractivity",
        contractive,
        max(abs(r - 1 / eps) for r in ratios) if ratios else None,
        ratios=ratios,
        expected_ratio=1 / eps,
        violation_demonstrated=not contractive,
    )
    report.add(
        "relative_entropy_monotonicity",
        monotone,
        ratios=uhlmann_ratios,
        lower_bound=1 / eps,
        violation_demonstrated=not monotone,
    )
    report.add(
        "cptp_control_contractive",
        all(r <= 1 + tol.residual_tol for r in control_ratios),
        ratios=control_ratios,
    )
    return report


# -- driver ---------------------------------------------------------------------


def _render_csv(doc: dict) -> str:
    out = io.StringIO()
    out.write("name,passed,residual,details\n")
    for verdict in doc["verdicts"]:
        scalars = [
            f"{k}={v}"
            for k, v in sorted(verdict.get("details", {}).items())
            if isinstance(v, (int, float, str, bool)) or v is None
        ]
        residual = verdict.get("residual")
        out.write(
            f"{verdict['name']},{verdict['passed']},"
            f"{'' if residual is None else residual},{';'.join(scalars)}\n"
        )
    return out.getvalue()


_HANDLERS = {
    "check-consistency": _cmd_check_consistency,
    "derive-map": _cmd_derive_map,
    "analyze-map": _cmd_analyze_map,
    "represent": _cmd_represent,
    "catalog": _cmd_catalog,
    "violations": _cmd_violations,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    seed = args.seed
    env_seed = os.environ.get("BEYONDCP_SEED")
    if env_seed is not None:
        try:
            seed = _seed(env_seed)
        except ValueError:
            print(f"error: BEYONDCP_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
        except argparse.ArgumentTypeError as err:
            print(f"error: BEYONDCP_SEED {err}", file=sys.stderr)
            return 2
    try:
        tol = replace(DEFAULT_TOL, rank_cut=args.tol_rank, residual_tol=args.tol_residual)
        if tol.rank_cut < _RANK_CUT_FLOOR:  # after ToleranceConfig has refused NaN
            raise ValueError(f"--tol-rank {tol.rank_cut!r} is below 16 machine epsilons")
        if tol.rank_cut >= 1:
            raise ValueError(f"--tol-rank {tol.rank_cut!r} is not below 1; it keeps no direction")
        report = _HANDLERS[args.subcommand](args, tol, seed)
        doc = emit_report(report)
    except (ValueError, OSError, json.JSONDecodeError, SelfCheckError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(_render_csv(doc))
    else:
        print(_report_text(doc))
    return 0 if report.all_passed else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
