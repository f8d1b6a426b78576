"""Independent checks of CLI reports.

Every expected outcome comes from how the benchmark built the input, never
from the library's own verdict.  The checks recompute what they judge from
the members the benchmark generated: falsification witnesses are re-checked
blockwise with ``apply`` and ``inner_product`` (not ``frames.gap_matrices``),
dual residuals are recomputed from the reported dual members, and reported
bounds are compared with the generator's construction and with a direct
pencil computation.  Each check returns ``None`` or a failure message.
"""

from __future__ import annotations

import math

import numpy as np

from modframes.module import ModuleVector, inner_product
from modframes.operators import ModuleOperator, apply, op_adjoint


def _matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def decode_vector(data) -> ModuleVector:
    blocks = [_matrix(b) for b in data["blocks"]]
    return ModuleVector(int(data["dim"]), len(blocks), np.hstack(blocks))


def decode_operator(data, dim: int) -> ModuleOperator:
    rows = [[_matrix(b) for b in brow] for brow in data["blocks"]]
    return ModuleOperator(dim, len(rows), int(data["target_rank"]), np.block(rows))


def _lambda_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def frame_gaps(members, target, lower, upper, x: ModuleVector) -> tuple[float, float]:
    """Smallest eigenvalues of S(x) - A<K*x,K*x>A* and B<x,x>B* - S(x),
    with S(x) = sum_i <L_i x, L_i x>, assembled block by block."""
    s_x = sum(inner_product(apply(m, x), apply(m, x)) for m in members)
    kx = apply(op_adjoint(target), x)
    low = lower @ inner_product(kx, kx) @ lower.conj().T
    up = upper @ inner_product(x, x) @ upper.conj().T
    return _lambda_min(s_x - low), _lambda_min(up - s_x)


def gram(members) -> np.ndarray:
    return sum(m.flat @ m.flat.conj().T for m in members)


def pencil_max(p: np.ndarray, s: np.ndarray) -> float:
    """max over x of (x* p x) / (x* s x), for positive definite s."""
    ci = np.linalg.inv(np.linalg.cholesky(0.5 * (s + s.conj().T)))
    return -_lambda_min(-(ci @ p @ ci.conj().T))


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# -- per-subcommand checks --------------------------------------------------

def witness(report, members, target, lower, upper) -> str | None:
    """A falsified verdict must carry a witness that re-checks negative."""
    if report["verdicts"].get("certificate") != "falsified":
        return f"expected a falsified certificate, got {report['verdicts'].get('certificate')!r}"
    data = report["witnesses"].get("falsifying_vector")
    if data is None:
        return "falsified without a witness"
    x = decode_vector(data)
    lo, up = frame_gaps(members, target, lower, upper, x)
    scale = float(np.linalg.norm(x.flat, 2)) ** 2 * max(
        np.linalg.norm(upper, 2) ** 2,
        (np.linalg.norm(lower, 2) * np.linalg.norm(target.flat, 2)) ** 2,
    )
    if min(lo, up) >= -1e-9 * scale:
        return f"witness does not re-check: gaps ({lo:.3e}, {up:.3e})"
    return None


def not_falsified(report) -> str | None:
    verdict = report["verdicts"].get("certificate")
    if verdict == "falsified" or report["witnesses"]:
        return f"bounds that hold were reported as {verdict!r}"
    return None


def optimal_bounds(report, members, target, alpha: float, beta: float) -> str | None:
    """Reported optimal bounds against the generator's construction
    (alpha, beta) and against a direct pencil computation."""
    lo, up = float(report["bounds"]["lower"]), float(report["bounds"]["upper"])
    s_hat = gram(members)
    beta_ref = math.sqrt(float(np.linalg.eigvalsh(s_hat)[-1]))
    alpha_ref = 1.0 / math.sqrt(pencil_max(target.flat.conj().T @ target.flat, s_hat))
    for name, got, built, ref in (("lower", lo, alpha, alpha_ref), ("upper", up, beta, beta_ref)):
        if not (_rel_close(got, built, 1e-9) and _rel_close(got, ref, 1e-6)):
            return f"{name} bound {got!r}: construction {built!r}, recomputed {ref!r}"
    return None


def dual(report, members, target) -> str | None:
    if report["verdicts"].get("verified") is not True:
        return "dual of a full-rank family not verified"
    g = [decode_operator(m, target.dim) for m in report["witnesses"]["dual_family"]]
    rec = sum(gi.flat @ li.flat.conj().T for gi, li in zip(g, members))
    residual = float(np.linalg.norm(rec - target.flat, 2))
    if len(g) != len(members) or residual > 1e-8:
        return f"dual residual recomputed as {residual:.3e}"
    return None


def perturb(report, primary, perturbed, norm_a: float, norm_b: float) -> str | None:
    """Transferred bounds follow from M, and the sampled M lies below the
    exact supremum max(lambda_max(D, S_L), lambda_max(D, S_G))."""
    if report["verdicts"].get("derived_bounds_hold") is not True:
        return "derived bounds of a small perturbation do not hold"
    m = float(report["residuals"]["M_estimate"])
    grow = (1.0 + math.sqrt(m)) ** 2
    b = report["bounds"]
    if not (_rel_close(float(b["derived_lower"]), norm_a**2 / grow, 1e-12)
            and _rel_close(float(b["derived_upper"]), grow * norm_b**2, 1e-12)):
        return "derived bounds do not follow from M_estimate"
    d_hat = gram([p - q for p, q in zip(primary, perturbed)])
    m_exact = max(pencil_max(d_hat, gram(primary)), pencil_max(d_hat, gram(perturbed)))
    if not 0.0 <= m <= m_exact * (1 + 1e-9):
        return f"M_estimate {m!r} outside [0, {m_exact!r}]"
    return None


def douglas(report, k: ModuleOperator, l: ModuleOperator, included: bool) -> str | None:
    if report["verdicts"].get("range_included") is not included:
        return f"range inclusion built as {included}, reported otherwise"
    if not included:
        return None if "factor" not in report["witnesses"] else "factor reported without inclusion"
    f = decode_operator(report["witnesses"]["factor"], k.dim)
    residual = float(np.linalg.norm(k.flat - f.flat @ l.flat, 2))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(k.flat, 2))):
        return f"factor residual recomputed as {residual:.3e}"
    return None


def tensor(report, pairs) -> str | None:
    """Factor residuals recomputed; the product residual is within the
    Kronecker bound sum_i ||R_i - K_i|| prod_{j != i} max(||R_j||, ||K_j||)."""
    v = report["verdicts"]
    if v.get("verified") is not True or v.get("factors") != len(pairs):
        return "tensor of verified dual pairs not verified"
    errs, norms = [], []
    for (primary, dual_members, target), got in zip(pairs, report["residuals"]["factor_residuals"]):
        rec = sum(g.flat @ m.flat.conj().T for g, m in zip(dual_members, primary))
        err = float(np.linalg.norm(rec - target.flat, 2))
        if abs(err - float(got)) > 1e-12 * (1.0 + float(np.linalg.norm(target.flat, 2))):
            return f"factor residual {got!r} recomputed as {err!r}"
        errs.append(err)
        norms.append(max(float(np.linalg.norm(rec, 2)), float(np.linalg.norm(target.flat, 2))))
    bound = sum(e * math.prod(norms[:i] + norms[i + 1:]) for i, e in enumerate(errs))
    if float(report["residuals"]["tensor_residual"]) > bound + 1e-10 * math.prod(norms):
        return "tensor residual exceeds the Kronecker bound"
    return None


def generated(spec_text: str, expected_text: str) -> str | None:
    return None if spec_text == expected_text else "generated spec differs from the seeded instance"
