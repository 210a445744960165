"""Holomorphic (p,0)-form calculus on model shrinkers.

Forms are stored over the flat variables only: compact factors admit no
nonzero holomorphic forms of polynomial growth, so every catalog form is a
combination of  u_I(z) dz^I  with polynomial coefficients and strictly
increasing flat multi-indices I.

The weighted Hodge Laplacian acts on holomorphic forms through the flow
derivative alone (the plain Hodge Laplacian annihilates them), computed here
via the two contraction pieces i_X d + d i_X with X the soliton field; on
monomial forms it is diagonal with eigenvalue (|alpha| + p)/2, which the
tests assert rather than assume.  The contraction, d and the weighted Hodge
Laplacian act on the flat factor alone, so they read no model; a form meets
a model only in `form_integral_identity_check`, whose weighted rule refuses
a coefficient whose variable count is not the model's.  Form spectra follow the Kunneth formula
with the form degree as a generating variable t: the (p,0) catalog is the t^p
coefficient of  sum_q t^q ((q/2, C(m, q)) * flat lines)  times
(scalar lines + t (1,0) lines) for each sphere factor, which the spectrum
module builds; its t^0 coefficient is the scalar catalog.  The contraction
map keeps the torus weight w = alpha + 1_I of z^alpha dz^I, and the block of
w depends on the size of supp(w) alone, so its kernel dimension
is summed over one small block per support size, each an exact integer rank.
Results of form arithmetic have valid indices by construction, so they are
built in one pass without the constructor's checks; only zero coefficients
are dropped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, NumericError
from .holopoly import HoloPoly, _literal_int, dim_O_d
from .models import ModelShrinker
from .oracle1d import oracle_spectrum_1d
from .quadrature import WEIGHTED_RADIUS_MAX, _variable_count_error, weighted_space_quadrature
from .ratlinalg import integer_rank
from .spectrum import SpectrumCatalog, _catalog, count_eigenvalues

# Bound on blocks x subset length x entries of the largest block, the work of
# one kernel dimension.  The slowest accepted (m, p), (11, 4), takes about
# 0.8 s on a 2-core VM; (12, 6), refused, takes 26 s for its top block alone.
KERNEL_WORK_LIMIT = 2_000_000


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

    @classmethod
    def _derived(cls, p: int, m: int, coeffs: dict[tuple[int, ...], HoloPoly]) -> "HoloForm":
        """A result of HoloForm arithmetic, whose indices and coefficients are valid already.

        Only the zero coefficients are dropped, as the public constructor drops them.
        """
        form = object.__new__(cls)
        object.__setattr__(form, "p", p)
        object.__setattr__(form, "m", m)
        cleaned = {i: poly for i, poly in coeffs.items() if not poly.is_zero()}
        object.__setattr__(form, "coeffs", cleaned)
        return form

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
        return HoloForm._derived(self.p, self.m, merged)

    def __sub__(self, other: "HoloForm") -> "HoloForm":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "HoloForm":
        scaled = {i: poly.scale(factor) for i, poly in self.coeffs.items()}
        return HoloForm._derived(self.p, self.m, scaled)

    def coeff_norm(self) -> float:
        return max((poly.coeff_norm() for poly in self.coeffs.values()), default=0.0)

    @staticmethod
    def monomial(m: int, alpha, index, coef: complex = 1.0) -> "HoloForm":
        return HoloForm(len(index), m, {tuple(index): HoloPoly.monomial(m, alpha, coef)})

    @staticmethod
    def from_json_dict(data: dict) -> "HoloForm":
        m = _literal_int(data["m"], "m")
        p = _literal_int(data["p"], "p")
        coeffs = {}
        for entry in data.get("coeffs", []):
            # JSON uses 1-based indices
            index = tuple(_literal_int(i, "index") - 1 for i in entry["index"])
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
    return HoloForm._derived(omega.p + 1, omega.m, out)


def interior_product(omega: HoloForm) -> HoloForm:
    """Contraction with the soliton field: dz^j picks up z_j/2."""
    if omega.p < 1:
        raise DomainError("interior product needs form degree p >= 1")
    out: dict[tuple[int, ...], HoloPoly] = {}
    for index, poly in omega.coeffs.items():
        for pos, j in enumerate(index):
            rest = index[:pos] + index[pos + 1 :]
            contrib = poly.mul_variable(j).scale(0.5 * (-1.0) ** pos)
            out[rest] = out[rest] + contrib if rest in out else contrib
    return HoloForm._derived(omega.p - 1, omega.m, out)


def f_hodge_laplacian(omega: HoloForm) -> HoloForm:
    """Weighted Hodge Laplacian on a holomorphic form: i_X d + d i_X."""
    total = HoloForm._derived(omega.p, omega.m, {})
    if omega.p < omega.m:  # d omega vanishes identically at top degree
        total = total + interior_product(exterior_derivative(omega))
    if omega.p >= 1:
        total = total + exterior_derivative(interior_product(omega))
    return total


# -- dimensions and kernels ------------------------------------------------------


def dim_O_forms(model: ModelShrinker, p: int, mu: float) -> int:
    """Dimension of holomorphic (p,0)-forms of growth at most mu.

    Only the flat factor carries such forms: C(flat_m, p) coefficient slots,
    each a polynomial of degree at most floor(mu) in flat_m variables.
    """
    m = model.flat_m
    if mu < 0 or not 0 <= p <= m:
        return 0
    return math.comb(m, p) * math.comb(m + math.floor(mu), m)


def kernel_dimension(model: ModelShrinker, p: int, mu: int) -> int:
    """Exact dimension of the contraction kernel on growth-mu (p,0)-forms.

    The contraction maps z^alpha dz^I to sum_pos (-1)^pos z^(alpha + e_j) dz^(I - j)
    (j = I[pos]), which keeps the weight w = alpha + 1_I.  Its matrix is
    therefore block-diagonal in w: the block of w has one column for each
    p-subset I of supp(w) and one row for each (p-1)-subset, so it depends on
    the support size s alone.  C(m, s) supports of size s carry C(mu + p, s)
    weights of degree at most mu + p each, so the kernel dimension is the sum
    over s of that count times the nullity of one block, an exact integer rank.
    """
    if p < 1:
        raise DomainError("kernel is defined for p >= 1")
    m = model.flat_m
    if p > m or mu < 0:
        return 0
    top = min(m, mu + p)
    # checked before any block is built: each of the top - p + 1 blocks is at
    # most the top one, whose entries are indexed by subsets of length p
    n_rows, n_cols = math.comb(top, p - 1), math.comb(top, p)
    if (top - p + 1) * p * n_rows * n_cols > KERNEL_WORK_LIMIT:
        raise NumericError(
            f"kernel blocks too large: {top - p + 1} blocks of up to {n_rows} x {n_cols}"
        )
    nullity = 0
    for s in range(p, top + 1):
        columns = list(combinations(range(s), p))
        rows = {J: r for r, J in enumerate(combinations(range(s), p - 1))}
        block = [[0] * len(columns) for _ in rows]
        for c, index in enumerate(columns):
            for pos in range(p):
                block[rows[index[:pos] + index[pos + 1 :]]][c] = 1 if pos % 2 == 0 else -1
        weights = math.comb(m, s) * math.comb(mu + p, s)
        nullity += weights * (len(columns) - integer_rank(block))
    return nullity


# -- spectra of the weighted Hodge Laplacian ---------------------------------------


def form_spectrum(model: ModelShrinker, p: int, lambda_max: float) -> SpectrumCatalog:
    """Complete (p,0)-form spectrum of the model up to lambda_max.

    Multiplicities count complex dimensions of eigenspaces.  The row is the
    t^p coefficient of the Kunneth generating function (see the spectrum
    module), so p = 0 gives the scalar catalog.  Raises NumericError, before
    any row is built, when its work exceeds the catalogs' work limit or
    lambda_max is not finite.
    """
    if p < 0 or p > model.m:
        raise DomainError(f"form degree p={p} outside 0..{model.m}")
    return _catalog(model, lambda_max, p)


def ricci_bound(model: ModelShrinker, norm: str = "operator") -> float:
    """Lambda = sup |Ric| + 1/2; the norm convention for |Ric| is selectable.

    Each sphere factor has Ric = g/2 on its two real directions and the flat
    factor has Ric = 0, so on k sphere factors the operator norm is 1/2 and
    the tensor (Frobenius) norm is sqrt(2k)/2.  Operator norm is the default.
    """
    if norm not in ("operator", "tensor"):
        raise DomainError(f"unknown Ricci norm convention {norm!r}")
    if not model.sphere_factors:
        return 0.5
    sup_ric = 0.5 if norm == "operator" else 0.5 * math.sqrt(2.0 * model.sphere_factors)
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
    count = count_eigenvalues(form_spectrum(model, p, horizon), 0.0, horizon)
    dim = dim_O_forms(model, p, mu)
    return FormCountResult(
        dim=dim,
        count=count,
        horizon=horizon,
        passed=dim <= count,
        half_strength_would_pass=dim <= 1 + count // 2,
    )


def one_form_spectrum_oracle(N: int = 800, k_eigs: int = 6) -> np.ndarray:
    """Discretized 1-form spectrum on the flat line: componentwise shift by 1/2.

    On the flat model the weighted Hodge Laplacian acts on each 1-form
    component as the scalar drift operator plus one half, so the oracle
    discretizes that shifted operator directly.
    """
    return oracle_spectrum_1d(N=N, k_eigs=k_eigs, shift=0.5)


def require_weighted_range(omega: HoloForm) -> None:
    """Raise NumericError when the weighted rule's top radial power s^(2 mu) passes the float range.

    The rule's radial nodes reach WEIGHTED_RADIUS_MAX = 42 and |omega|^2
    carries s^(2 mu), which stays finite up to mu = 94.  On gaussian(2) the
    kernel form z1^N z2 dz1 - z1^(N+1) dz2 gave a finite integral at N = 93,
    Infinity at N = 94 and NaN at N = 400, and the rule's power table for
    N = 10^8 asked for 11.9 GiB.
    """
    if 2 * omega.mu * math.log(WEIGHTED_RADIUS_MAX) > math.log(sys.float_info.max):
        raise NumericError(
            f"|omega|^2 of degree {2 * omega.mu} passes the float range on the weighted rule's radii up to "
            f"{WEIGHTED_RADIUS_MAX:g}"
        )


def form_integral_identity_check(
    model: ModelShrinker,
    omega: HoloForm,
    Lambda: float | None = None,
    resolution: int = 256,
) -> float:
    """Weighted-volume integral that must be nonpositive for contraction-kernel forms.

    Evaluates int |omega|^2 (f - n/2 - mu - 2 p Lambda) e^{-f} dv by
    quadrature, raises if the precondition i_X omega = 0 fails, and raises if
    the value is positive beyond 1e-8 relative to the weighted norm.  Raises
    DomainError when omega's variable count is not the model's flat count,
    and NumericError when `require_weighted_range` does, both before the rule
    is built; a form with no coefficients reaches no `gram` to compare the
    counts.
    """
    if omega.m != model.flat_m:
        raise _variable_count_error(omega, model.flat_m)
    contracted = interior_product(omega)
    if not contracted.is_zero(1e-12 * max(omega.coeff_norm(), 1.0)):
        raise DomainError("form is not in the kernel of the contraction map")
    require_weighted_range(omega)
    lam = Lambda if Lambda is not None else ricci_bound(model)
    mu = omega.mu
    rule = weighted_space_quadrature(model, resolution)
    # |omega|^2 = 2^p sum_I |u_I|^2: each dz factor contributes |dz|^2 = 2
    norms = 2.0**omega.p * np.trace(rule.gram(list(omega.coeffs.values()))).real
    f_vals = model.f_min + 0.25 * rule.radii**2
    value = rule.integrate(norms, f_vals - model.n / 2.0 - mu - 2.0 * omega.p * lam).item()
    scale = rule.integrate(norms).item() * (model.n / 2.0 + mu + 2.0 * omega.p * lam)
    if value > 1e-8 * max(1.0, scale):
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
