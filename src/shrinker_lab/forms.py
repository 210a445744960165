"""Holomorphic (p,0)-form calculus on model shrinkers.

Forms are stored over the flat variables only: compact factors admit no
nonzero holomorphic forms of polynomial growth, so every catalog form is a
combination of  u_I(z) dz^I  with polynomial coefficients and strictly
increasing flat multi-indices I.

The weighted Hodge Laplacian acts on holomorphic forms through the flow
derivative alone (the plain Hodge Laplacian annihilates them), computed here
via the two contraction pieces i_X d + d i_X with X the soliton field; on
monomial forms it is diagonal with eigenvalue (|alpha| + p)/2, which the
tests assert rather than assume.  The contraction map keeps the torus weight
w = alpha + 1_I of z^alpha dz^I, so its kernel dimension is summed over one
small block per weight w, each an exact integer rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DomainError, NumericError
from .holopoly import HoloPoly, evaluate_parts, monomials
from .models import ModelShrinker
from .oracle1d import oracle_spectrum_1d
from .quadrature import weighted_space_quadrature
from .ratlinalg import integer_rank
from .spectrum import SpectralLine, _convolve, _flat_lines, _sphere_lines

_EPS = 1e-9
KERNEL_BASIS_GUARD = 100_000


@dataclass(frozen=True)
class HoloForm:
    """(p,0)-form with polynomial coefficients over increasing multi-indices."""

    p: int
    m: int
    coeffs: dict[tuple[int, ...], HoloPoly]

    def __post_init__(self):
        if not 0 <= self.p <= self.m:
            raise DomainError(f"form degree p={self.p} outside [0, {self.m}]")
        cleaned = {}
        for index, poly in self.coeffs.items():
            index = tuple(int(i) for i in index)
            if len(index) != self.p or any(b <= a for a, b in zip(index, index[1:])):
                raise DomainError(f"multi-index {index} is not strictly increasing of length {self.p}")
            if any(i < 0 or i >= self.m for i in index):
                raise DomainError(f"multi-index {index} outside variable range 0..{self.m - 1}")
            if poly.m != self.m:
                raise DomainError("coefficient variable count differs from the form's")
            if not poly.is_zero():
                cleaned[index] = poly
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def mu(self) -> int:
        """Growth order: the maximal coefficient degree."""
        return max((poly.degree for poly in self.coeffs.values()), default=-1)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(poly.is_zero(tol) for poly in self.coeffs.values())

    def __add__(self, other: "HoloForm") -> "HoloForm":
        if (self.p, self.m) != (other.p, other.m):
            raise DomainError("form degrees or variable counts differ")
        merged = dict(self.coeffs)
        for index, poly in other.coeffs.items():
            merged[index] = merged[index] + poly if index in merged else poly
        return HoloForm(self.p, self.m, merged)

    def __sub__(self, other: "HoloForm") -> "HoloForm":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "HoloForm":
        return HoloForm(self.p, self.m, {i: poly.scale(factor) for i, poly in self.coeffs.items()})

    def coeff_norm(self) -> float:
        return max((poly.coeff_norm() for poly in self.coeffs.values()), default=0.0)

    @staticmethod
    def monomial(m: int, alpha, index, coef: complex = 1.0) -> "HoloForm":
        return HoloForm(len(index), m, {tuple(index): HoloPoly.monomial(m, alpha, coef)})

    @staticmethod
    def from_json_dict(data: dict) -> "HoloForm":
        m = int(data["m"])
        p = int(data["p"])
        coeffs = {}
        for entry in data.get("coeffs", []):
            index = tuple(int(i) - 1 for i in entry["index"])  # JSON uses 1-based indices
            poly = HoloPoly.from_json_dict({"m": m, "terms": entry.get("terms", [])})
            coeffs[index] = coeffs[index] + poly if index in coeffs else poly
        return HoloForm(p, m, coeffs)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "coeffs": [
                {"index": [i + 1 for i in index], "terms": poly.to_json_dict()["terms"]}
                for index, poly in sorted(self.coeffs.items())
            ],
        }


def _check_model_form(model: ModelShrinker, omega: HoloForm) -> None:
    if omega.m != model.flat_m:
        raise DomainError(
            f"form uses {omega.m} variables but the model carries {model.flat_m} flat variables"
        )


def exterior_derivative(omega: HoloForm) -> HoloForm:
    """Holomorphic exterior derivative: d(u dz^I) = sum_j du/dz_j dz^j ^ dz^I."""
    out: dict[tuple[int, ...], HoloPoly] = {}
    for index, poly in omega.coeffs.items():
        for j in range(omega.m):
            if j in index:
                continue
            du = poly.partial(j)
            if du.is_zero():
                continue
            merged = tuple(sorted((j,) + index))
            sign = (-1.0) ** sum(1 for i in index if i < j)
            contrib = du.scale(sign)
            out[merged] = out[merged] + contrib if merged in out else contrib
    return HoloForm(omega.p + 1, omega.m, out)


def interior_product(model: ModelShrinker, omega: HoloForm) -> HoloForm:
    """Contraction with the soliton field: dz^j picks up z_j/2."""
    _check_model_form(model, omega)
    if omega.p < 1:
        raise DomainError("interior product needs form degree p >= 1")
    out: dict[tuple[int, ...], HoloPoly] = {}
    for index, poly in omega.coeffs.items():
        for pos, j in enumerate(index):
            rest = index[:pos] + index[pos + 1 :]
            contrib = poly.mul_variable(j).scale(0.5 * (-1.0) ** pos)
            out[rest] = out[rest] + contrib if rest in out else contrib
    return HoloForm(omega.p - 1, omega.m, out)


def f_hodge_laplacian(model: ModelShrinker, omega: HoloForm) -> HoloForm:
    """Weighted Hodge Laplacian on a holomorphic form: i_X d + d i_X."""
    _check_model_form(model, omega)
    total = HoloForm(omega.p, omega.m, {})
    if omega.p < omega.m:  # d omega vanishes identically at top degree
        total = total + interior_product(model, exterior_derivative(omega))
    if omega.p >= 1:
        total = total + exterior_derivative(interior_product(model, omega))
    return total


# -- dimensions and kernels ------------------------------------------------------


def dim_O_forms(model: ModelShrinker, p: int, mu: float) -> int:
    """Dimension of holomorphic (p,0)-forms of growth at most mu."""
    if mu < 0:
        return 0
    k = math.floor(mu)
    if model.kind == "gaussian":
        m = model.flat_m
        if p > m:
            return 0
        return math.comb(m, p) * math.comb(m + k, m)
    if model.kind == "cylinder":
        # only the flat coordinate contributes holomorphic forms
        return (k + 1) if p in (0, 1) else 0
    if p > model.flat_m:
        return 0
    return math.comb(model.flat_m, p) * math.comb(model.flat_m + k, model.flat_m)


def kernel_dimension(model: ModelShrinker, p: int, mu: int) -> int:
    """Exact dimension of the contraction kernel on growth-mu (p,0)-forms.

    The contraction maps z^alpha dz^I to sum_pos (-1)^pos z^(alpha + e_j) dz^(I - j)
    (j = I[pos]), which keeps the weight w = alpha + 1_I.  Its matrix is
    therefore block-diagonal in w: the block of w has one column for each
    p-subset I of supp(w) and one row for each (p-1)-subset.  The kernel
    dimension is the sum of the blocks' nullities, each an exact integer rank.
    """
    if p < 1:
        raise DomainError("kernel is defined for p >= 1")
    m = model.flat_m
    if p > m or mu < 0:
        return 0
    # size of the whole matrix: a row is a target (beta, J) with |J| = p-1,
    # 1 <= |beta| <= mu+1 and beta not supported in J alone
    n_cols = math.comb(m, p) * math.comb(m + mu, m)
    n_rows = math.comb(m, p - 1) * (math.comb(m + mu + 1, m) - math.comb(mu + p, p - 1))
    if n_rows * n_cols > KERNEL_BASIS_GUARD * 10:
        raise NumericError(f"kernel matrix too large: {n_rows} x {n_cols}")
    if n_cols > KERNEL_BASIS_GUARD:
        raise NumericError(f"kernel basis too large: {n_cols} unknowns")
    nullity = 0
    for w in monomials(m, mu + p):
        support = [j for j in range(m) if w[j]]
        if len(support) < p:
            continue
        columns = list(combinations(support, p))
        rows = {J: r for r, J in enumerate(combinations(support, p - 1))}
        block = [[0] * len(columns) for _ in rows]
        for c, index in enumerate(columns):
            for pos in range(p):
                block[rows[index[:pos] + index[pos + 1 :]]][c] = 1 if pos % 2 == 0 else -1
        nullity += len(columns) - integer_rank(block)
    return nullity


# -- spectra of the weighted Hodge Laplacian ---------------------------------------


@dataclass(frozen=True)
class FormSpectrumCatalog:
    """Eigenvalue lines of the weighted Hodge Laplacian on (p,0)-forms.

    Multiplicities count complex dimensions of eigenspaces.
    """

    model: ModelShrinker
    p: int
    lines: tuple[SpectralLine, ...]
    lambda_max: float

    def count(self, lo: float, hi: float) -> int:
        if hi > self.lambda_max + _EPS:
            raise DomainError(f"catalog horizon {self.lambda_max} below requested {hi}")
        return sum(
            line.multiplicity
            for line in self.lines
            if lo - _EPS <= float(line.eigenvalue) <= hi + _EPS
        )

    def min_eigenvalue(self) -> float:
        return float(self.lines[0].eigenvalue) if self.lines else math.inf

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "p": self.p,
            "lambda_max": self.lambda_max,
            "lines": [line.to_dict() for line in self.lines],
        }


def _flat_form_lines(two_m: int, p: int, lambda_max: float):
    """Componentwise spectrum of the weighted Hodge Laplacian on flat (p,0)-forms."""
    m = two_m // 2
    if p > m:
        return []
    out = []
    k = 0
    while (k + p) / 2 <= lambda_max + _EPS:
        mult = math.comb(m, p) * math.comb(two_m + k - 1, two_m - 1)
        out.append(
            (Fraction(k + p, 2), mult, f"degree {k} coefficients on dz^({p} of {m})")
        )
        k += 1
    return out


def _sphere_one_form_lines(lambda_max: float):
    out = []
    ell = 1
    while ell * (ell + 1) / 2 <= lambda_max + _EPS:
        out.append(
            (Fraction(ell * (ell + 1), 2), 2 * ell + 1, f"sphere (1,0) eigenform l={ell}")
        )
        ell += 1
    return out


def form_spectrum(model: ModelShrinker, p: int, lambda_max: float) -> FormSpectrumCatalog:
    """Complete (p,0)-form spectrum of the model up to lambda_max."""
    if p < 0 or p > model.m:
        raise DomainError(f"form degree p={p} outside 0..{model.m}")
    if model.kind == "gaussian":
        lines = _flat_form_lines(2 * model.flat_m, p, lambda_max)
    elif model.kind == "cylinder":
        flat_scalar = _flat_lines(2, lambda_max)
        sphere_scalar = _sphere_lines(lambda_max)
        flat_one = _flat_form_lines(2, 1, lambda_max)
        sphere_one = _sphere_one_form_lines(lambda_max)
        if p == 0:
            lines = _convolve(sphere_scalar, flat_scalar, lambda_max)
        elif p == 1:
            block_a = _convolve(sphere_one, flat_scalar, lambda_max)
            block_b = _convolve(sphere_scalar, flat_one, lambda_max)
            merged: dict[Fraction, tuple[int, list[str]]] = {}
            for ev, mult, label in block_a + block_b:
                got = merged.get(ev, (0, []))
                merged[ev] = (got[0] + mult, got[1] + [label])
            lines = [(ev, mult, "; ".join(labels)) for ev, (mult, labels) in sorted(merged.items())]
        else:
            lines = _convolve(sphere_one, flat_one, lambda_max)
    else:
        raise DomainError("form spectra are available for gaussian and cylinder models")
    return FormSpectrumCatalog(
        model=model,
        p=p,
        lines=tuple(SpectralLine(ev, mult, label) for ev, mult, label in lines),
        lambda_max=float(lambda_max),
    )


def ricci_bound(model: ModelShrinker, norm: str = "operator") -> float:
    """Lambda = sup |Ric| + 1/2; the norm convention for |Ric| is selectable.

    The sphere factor has Ric = g/2, so its operator norm is 1/2 and its
    tensor (Frobenius) norm is sqrt(2)/2.  Operator norm is the default.
    """
    if norm not in ("operator", "tensor"):
        raise DomainError(f"unknown Ricci norm convention {norm!r}")
    if model.kind == "gaussian" or not model.sphere_factors:
        return 0.5
    sup_ric = 0.5 if norm == "operator" else 0.5 * math.sqrt(2.0)
    return sup_ric + 0.5


@dataclass(frozen=True)
class FormCountResult:
    dim: int
    count: int
    horizon: float
    passed: bool
    half_strength_would_pass: bool

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "count": self.count,
            "horizon": self.horizon,
            "pass": self.passed,
            "half_strength_would_pass": self.half_strength_would_pass,
        }


def form_count_check(
    model: ModelShrinker, p: int, mu: float, norm: str = "operator"
) -> FormCountResult:
    """Check dim O_mu(p-forms) against the eigenvalue count up to mu/2 + p Lambda.

    The bound is the full count with complex multiplicities; whether the
    halved count (the function-space flavor of the estimate) would also pass
    is reported but never asserted, since the constant 1-form already
    saturates the full count.
    """
    lam = ricci_bound(model, norm)
    horizon = mu / 2.0 + p * lam
    catalog = form_spectrum(model, p, horizon)
    count = catalog.count(0.0, horizon)
    dim = dim_O_forms(model, p, mu)
    return FormCountResult(
        dim=dim,
        count=count,
        horizon=horizon,
        passed=dim <= count,
        half_strength_would_pass=dim <= 1 + count // 2,
    )


def one_form_spectrum_oracle(X: float = 12.0, N: int = 800, k_eigs: int = 6) -> np.ndarray:
    """Discretized 1-form spectrum on the flat line: componentwise shift by 1/2.

    On the flat model the weighted Hodge Laplacian acts on each 1-form
    component as the scalar drift operator plus one half, so the oracle
    discretizes that shifted operator directly.
    """
    return oracle_spectrum_1d(X=X, N=N, k_eigs=k_eigs, shift=0.5)


def form_integral_identity_check(
    model: ModelShrinker,
    omega: HoloForm,
    Lambda: float | None = None,
    resolution: int = 256,
    tol: float = 1e-8,
) -> float:
    """Weighted-volume integral that must be nonpositive for contraction-kernel forms.

    Evaluates int |omega|^2 (f - n/2 - mu - 2 p Lambda) e^{-f} dv by
    quadrature, raises if the precondition i_X omega = 0 fails, and raises if
    the value is positive beyond tol relative to the weighted norm.
    """
    _check_model_form(model, omega)
    contracted = interior_product(model, omega)
    if not contracted.is_zero(1e-12 * max(omega.coeff_norm(), 1.0)):
        raise DomainError("form is not in the kernel of the contraction map")
    lam = Lambda if Lambda is not None else ricci_bound(model)
    mu = omega.mu
    rule = weighted_space_quadrature(model, resolution)
    degrees = sorted({k for poly in omega.coeffs.values() for k in poly.homogeneous_parts()}) or [0]
    parts = np.array(
        [evaluate_parts(poly, rule.nodes, degrees) for poly in omega.coeffs.values()], dtype=complex
    ).reshape(-1, len(degrees), rule.nodes.shape[0])
    # |omega|^2 = 2^p sum_I |u_I|^2: each dz factor contributes |dz|^2 = 2
    norms = 2.0**omega.p * rule.sphere_integrals(parts, degrees, parts, degrees)
    f_vals = model.f_min + 0.25 * rule.radii**2
    value = rule.integrate(norms, f_vals - model.n / 2.0 - mu - 2.0 * omega.p * lam)
    scale = rule.integrate(norms) * (model.n / 2.0 + mu + 2.0 * omega.p * lam)
    if value > tol * max(1.0, scale):
        raise NumericError(f"kernel-form integral is positive: {value:.3e}")
    return value


@dataclass(frozen=True)
class FormReductionLedger:
    dim_forms: int
    dim_funcs_shifted: int
    kernel_dims: tuple[int, ...]
    kernel_bound_margin: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "dim_forms": self.dim_forms,
            "dim_funcs_shifted": self.dim_funcs_shifted,
            "kernel_dims": list(self.kernel_dims),
            "kernel_bound_margin": self.kernel_bound_margin,
            "pass": self.passed,
        }


def form_reduction_ledger(model: ModelShrinker, p: int, mu: int) -> FormReductionLedger:
    """Reduction of form counting to function counting through contraction kernels.

    Contracting p times maps growth-mu p-forms to growth-(mu+p) functions;
    each stage can only lose the kernel, so
    dim O_mu(p-forms) <= dim O_{mu+p} + sum of stage kernels.  The margin
    compares the first kernel against the exponential floor e^{1+mu}.
    """
    from .holopoly import dim_O_d

    dim_forms = dim_O_forms(model, p, mu)
    dim_funcs = dim_O_d(model, mu + p)
    kernels = tuple(kernel_dimension(model, p - j, mu + j) for j in range(p))
    passed = dim_forms <= dim_funcs + sum(kernels)
    margin = math.exp(1.0 + mu) - (kernels[0] if kernels else 0)
    return FormReductionLedger(
        dim_forms=dim_forms,
        dim_funcs_shifted=dim_funcs,
        kernel_dims=kernels,
        kernel_bound_margin=margin,
        passed=passed,
    )
