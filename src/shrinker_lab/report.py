"""Named verification checks and the report harness behind verify-all.

Every check is one row of the CHECKS table: a name, the statement it verifies,
a pinned tolerance and a measure returning the worst residual over its cases.
The harness reports margin = tol - residual (how far inside the tolerance the
worst case landed) and a check passes when the margin is nonnegative.  Yes/no
checks have tol 0 and residual 0 or 1.  Per-model rows run once on every model
under the name "<row name>.<model tag>".  Checks run one after another and the
report is sorted by name, so its output is deterministic for a configuration.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations
from operator import attrgetter
from typing import Callable

import numpy as np

from . import __version__, fheat, forms, frequency, holopoly, oracle1d, quadrature, spectrum
from .holopoly import HoloPoly, monomials
from .models import ModelShrinker, cylinder, gaussian, geometry_at

# the largest resolution the per-model rows build quadrature rules at
RESOLUTION = 256


@dataclass
class CheckResult:
    name: str
    statement: str
    status: str  # pass | fail
    margin: float | None = None
    runtime_ms: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    config_echo: dict = field(default_factory=dict)
    version: str = __version__

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise ValueError("check names must be unique")
        self.checks.sort(key=attrgetter("name"))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config_echo,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    `measure` takes the model (per-model rows) or nothing (global rows) and
    returns the worst residual, or (residual, detail) where the detail is
    computed.  Otherwise the detail is `note` with `{tol}` filled in.
    `curved_tol`, when set, replaces `tol` on models with scalar curvature.
    """

    name: str
    tol: float
    measure: Callable
    statement: str
    note: str = ""
    per_model: bool = True
    curved_tol: float | None = None


def _worst(residuals) -> float:
    """The largest residual, or NaN when any residual is NaN (so the check fails)."""
    return float(np.max(list(residuals)))


def _z1_power(model: ModelShrinker, k: int) -> HoloPoly:
    return HoloPoly.monomial(model.flat_m, (k,) + (0,) * (model.flat_m - 1))


# -- per-model measures ----------------------------------------------------------


def _catalog(model: ModelShrinker) -> float:
    # the row against the closed form, entry k the multiplicity of k/2: the flat entries
    # C(2m+k-1, 2m-1) convolved with 2l+1 at k = l(l+1) once per sphere factor, through l = 3
    n = 2 * model.flat_m
    expected = [math.comb(n + k - 1, n - 1) for k in range(13)]
    for _ in range(model.sphere_factors):
        expected = [
            sum(expected[k - ell * (ell + 1)] * (2 * ell + 1) for ell in range(4) if ell * (ell + 1) <= k)
            for k in range(13)
        ]
    return float(spectrum.analytic_spectrum(model, 6.0).multiplicities != tuple(expected))


def _first_eigenvalue(model: ModelShrinker) -> float:
    row = spectrum.analytic_spectrum(model, 2.0).multiplicities
    return 0.5 - next(k for k in range(1, len(row)) if row[k]) / 2


def _dimension_bound(model: ModelShrinker) -> float:
    recs = [spectrum.dimension_bound_check(model, float(d)) for d in range(1, 7)]
    return max(rec.dim_Od - rec.bound for rec in recs)


def _equality_d1(model: ModelShrinker) -> tuple[float, str]:
    rec = spectrum.dimension_bound_check(model, 1.0)
    if not model.sphere_factors:
        ok = rec.bound == rec.dim_Od == model.m + 1
    else:
        ok = rec.dim_Od <= rec.bound
    return float(not ok), f"bound={rec.bound} dim={rec.dim_Od}"


def _random_polys(model: ModelShrinker, seed: int, count: int):
    """count random polynomials of degree <= 6 from one seeded stream.

    Each monomial of degree 1..6, then the constant, is kept with
    probability 0.6 and a complex normal coefficient; the monomials are
    enumerated once for all draws.  The stream is the standard library's
    `random.Random(seed)`: `random()` for each keep test, then `gauss(0, 1)`
    for the real and the imaginary part.  Python keeps `random()`'s sequence
    for an int seed, but promises nothing for `gauss()` (its algorithm, or the
    second value it caches); `test_roundtrip_stream_is_pinned` holds those
    draws.  The keys are valid by construction, so the terms skip the
    constructor's checks.
    """
    rng = random.Random(seed)
    zero = (0,) * model.flat_m
    support = [*monomials(model.flat_m, 6, 1), zero]
    for _ in range(count):
        terms = {alpha: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for alpha in support if rng.random() < 0.6}
        yield HoloPoly._derived(model.flat_m, terms or {zero: 1.0 + 0.0j})


def _decomposition(model: ModelShrinker) -> float:
    errors = []
    for u in _random_polys(model, 20240811, 100):
        recon = holopoly.decompose_by_eigenvalue(u, 6.0).reconstruct(model.flat_m)
        errors.append((recon - u).coeff_norm() / max(u.coeff_norm(), 1.0))
    return _worst(errors)


def _decomposition_growth(model: ModelShrinker) -> float:
    ok = True
    for u in _random_polys(model, 77, 25):
        dec = holopoly.decompose_by_eigenvalue(u, 6.0)
        if not holopoly.growth_eigenvalue_consistency(dec):
            ok = False
        for k, part in dec.parts.items():
            op = holopoly.lie_derivative_nabla_f(part)
            if (op - part.scale(k / 2)).coeff_norm() > 1e-10 * max(1.0, part.coeff_norm()):
                ok = False
    return float(not ok)


def _frequency_sharp(model: ModelShrinker, method: str) -> float:
    radii = [1.0, 2.5, 8.0, 20.0, 40.0]
    if model.sup_S > 0:
        radii = [4.5, 8.0, 20.0, 40.0]
    config = frequency.FrequencyConfig(resolution=RESOLUTION, method=method)
    errors = []
    for alpha in monomials(model.flat_m, 5, 1):
        u = HoloPoly.monomial(model.flat_m, alpha)
        d = sum(alpha)
        # one profile per monomial forms its torus sums once for all radii
        profile = frequency.frequency_profile(model, u, d, radii, config)
        for r, u_r in zip(radii, profile.U):
            target = d if model.sup_S == 0 else d * r * r / (r * r - 4.0 * model.sup_S)
            errors.append(abs(u_r - target))
    return _worst(errors)


def _i_prime(model: ModelShrinker) -> float:
    radii = [4.5, 6.0, 10.0, 20.0]
    return _worst(frequency.check_derivative_I(model, _z1_power(model, k), radii) for k in (1, 2, 3))


def _dirichlet_gap(model: ModelShrinker) -> float:
    m = model.flat_m
    e1, e2 = (1,) + (0,) * (m - 1), (2,) + (0,) * (m - 1)
    gaps = []
    for u in (HoloPoly(m, {e1: 1.0}), HoloPoly(m, {e2: 1.0, (0,) * m: 0.5, e1: -0.75})):
        rec = frequency.D_of_r(model, u, [4.5, 10.0], RESOLUTION, "quadrature")
        gaps.extend(np.abs(rec.bulk - rec.boundary) / np.maximum(np.abs(rec.bulk), 1e-300))
    return _worst(gaps)


def _volume_identity(model: ModelShrinker) -> float:
    radii = (3.0, 6.0, 10.0, 20.0) if model.sup_S == 0 else (4.0, 6.0, 10.0, 20.0)
    return _worst(quadrature.verify_volume_identity(model, radii, 128))


def _normalization(model: ModelShrinker) -> float:
    rng = random.Random(5)
    m = model.flat_m
    errors = []
    for _ in range(50):
        re_part = [rng.gauss(0.0, 1.0) for _ in range(m)]
        z = np.array(re_part) + 1j * np.array([rng.gauss(0.0, 1.0) for _ in range(m)])
        rec = geometry_at(model, 2.0 * z)
        errors.append(abs(rec.S + rec.grad_f_sq - rec.f))
        if rec.b * rec.b > 4.0 * model.sup_S:
            errors.append(abs(rec.grad_b_sq + 4.0 * rec.S / rec.b**2 - 1.0))
    return _worst(errors)


def _rho_mu(model: ModelShrinker) -> float:
    # each case's excess over its own bound: rho <= mu, and |rho - d^2/4| <= 1e-8 if flat
    excess = []
    for alpha in monomials(model.flat_m, 4, 1):
        d = sum(alpha)
        rec = frequency.rho_mu(model, HoloPoly.monomial(model.flat_m, alpha), float(d), [4.5, 8.0, 16.0])
        excess.extend(rec.rho - rec.mu)
        if not model.sphere_factors:
            excess.extend(np.abs(rec.rho - d * d / 4.0) - 1e-8)
    return _worst(excess)


def _monotone(model: ModelShrinker) -> float:
    lo = frequency.default_R0(model) + 0.1
    pre = np.linspace(lo, 44.0, 140)
    hold = np.linspace(lo + 0.17, 43.1, 59)
    ok = True
    for k in (1, 2, 3):
        u = _z1_power(model, k)
        cfg = frequency.calibrate_constants(model, u, float(k), pre)
        if not frequency.check_monotone(frequency.frequency_profile(model, u, float(k), hold, cfg)):
            ok = False
    return float(not ok)


def _doubling(model: ModelShrinker) -> float:
    grid = np.array([8.0, 12.0, 16.0, 24.0, 32.0, 48.0])
    deficits = []
    for d in (1, 2, 3):
        prof = frequency.frequency_profile(model, _z1_power(model, d), float(d), grid)
        for rec in frequency.doubling_and_three_circle(prof, [8.0, 12.0]):
            deficits += [-rec.doubling_margin, -rec.three_circle_margin]
    return _worst(deficits)


def _j_ledger(model: ModelShrinker) -> float:
    ok = True
    for d in (1, 2):
        ledger = frequency.shell_energy_ledger(model, _z1_power(model, d), float(d), 6.0)
        ok = ok and ledger.passed and ledger.J1 < ledger.J2 < ledger.J3
    return float(not ok)


def _k_lemma(model: ModelShrinker) -> tuple[float, str]:
    m = model.flat_m
    u = HoloPoly(m, {(1,) + (0,) * (m - 1): 1.0, (0,) * (m - 1) + (2,): 0.5})
    recs = [frequency.check_defect_recursion(model, u, r, RESOLUTION) for r in (6.0, 10.0)]
    detail = ""
    if m == 1:
        # one complex variable: |grad u|^2 = 2 |du/dnu|^2 pointwise, so every K_j and,
        # by the recursion, its bulk form vanish; the residual compares two roundings
        detail = "vacuous on one flat variable: K_j and its bulk form vanish, both sides are rounding"
    return _worst(rec.residual for rec in recs), detail


# -- global measures --------------------------------------------------------------


def _oracle_1d() -> float:
    ev = oracle1d.oracle_spectrum_1d(N=800, k_eigs=5)
    return float(np.abs(ev - np.array([0.0, 0.5, 1.0, 1.5, 2.0])).max())


def _heat_oracle() -> float:
    x, num = fheat.timestep_oracle(np.square, 0.0, 1.0, N_grid=800, N_steps=200, extrapolate=True)
    series = fheat.evolve_series(fheat.project_to_eigenbasis(np.array([0.0, 0.0, 1.0])), 1.0, x)
    return fheat.weighted_l2_distance(num, series, x=x)


def _heat_transform() -> float:
    residuals = []
    for d in range(5):
        hp = fheat.HeatPolynomial.of_degree(d)
        residuals.append(fheat.ancient_transform_check(hp))
        if fheat.eternal_to_caloric(fheat.transform_to_eternal(hp)).terms != hp.terms:
            residuals.append(1.0)
    return _worst(residuals)


def _heat_energy_decay() -> float:
    sol = fheat.project_to_eigenbasis(np.array([1.0, -2.0, 1.0, 0.5]))
    norms = [sol.norm_sq(s) for s in np.linspace(0.0, 3.0, 13)]
    return _worst(later - earlier for earlier, later in zip(norms, norms[1:]))


def _forms_eigen_law() -> float:
    ok = True
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            for idx in combinations(range(m), p):
                for deg in range(0, 7):
                    alpha = [0] * m
                    alpha[deg % m] = deg
                    om = forms.HoloForm.monomial(m, alpha, idx)
                    got = forms.f_hodge_laplacian(om)
                    if (got - om.scale((deg + p) / 2.0)).coeff_norm() > 1e-14:
                        ok = False
    return float(not ok)


def _forms_nilpotent() -> float:
    rng = random.Random(9)
    ok = True
    for _ in range(10):
        coeffs = {}
        for idx in combinations(range(3), 2):
            terms = {}
            for alpha in monomials(3, 3, 1):
                if rng.random() < 0.3:
                    terms[alpha] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            if terms:
                coeffs[idx] = HoloPoly._derived(3, terms)
        if not coeffs:
            continue
        om = forms.HoloForm(2, 3, coeffs)
        twice = forms.interior_product(forms.interior_product(om))
        if not twice.is_zero(1e-12 * max(om.coeff_norm(), 1.0)):
            ok = False
    return float(not ok)


def _one_form_bound() -> float:
    # the bound 1/2 is taken with a slack of 1e-6 for the discretization
    return (0.5 - 1e-6) - float(forms.one_form_spectrum_oracle(k_eigs=6).min())


def _form_count() -> float:
    cases = [(gaussian(m), p) for m in (1, 2) for p in range(0, min(2, m) + 1)]
    cases += [(cylinder(), p) for p in (0, 1, 2)]
    ok = all(forms.form_count_check(model, p, mu).passed for model, p in cases for mu in range(5))
    return float(not ok)


def _forms_sharpness() -> float:
    rec = forms.form_count_check(gaussian(1), 1, 0)
    cat = forms.form_spectrum(gaussian(1), 1, rec.horizon)
    top = max(k for k, mult in enumerate(cat.multiplicities) if mult) / 2
    return float(not (rec.passed and abs(top - rec.horizon) < 1e-12 and rec.dim == rec.count))


def _kernel_syzygy() -> float:
    model = gaussian(2)
    dims = [forms.kernel_dimension(model, 1, mu) for mu in range(1, 6)]
    ok = dims == [holopoly.dim_O_d(model, mu - 1) for mu in range(1, 6)]
    return float(not (ok and forms.kernel_dimension(gaussian(1), 1, 4) == 0))


def _kernel_integral() -> tuple[float, str]:
    syzygy = {(0,): HoloPoly.monomial(2, (0, 1)), (1,): HoloPoly.monomial(2, (1, 0), -1.0)}
    val = forms.form_integral_identity_check(gaussian(2), forms.HoloForm(1, 2, syzygy))
    expected = -256.0 * math.pi**2
    return abs(val - expected) / abs(expected), f"value={val:.6g}"


def _form_reduction() -> float:
    cases = [(gaussian(m), p) for m in (1, 2) for p in range(1, m + 1)] + [(cylinder(), 1)]
    ledgers = (forms.form_reduction_ledger(model, p, mu) for model, p in cases for mu in range(4))
    return float(not all(rec.passed for rec in ledgers))


# -- the table and the harness ------------------------------------------------------

_SHARP = "the frequency of a flat monomial equals its degree (cylinder: degree r^2/rho^2)"

# name, tolerance, measure, statement: per-model rows first, then the global rows
CHECKS = [
    Check("spectrum.catalog", 0.0, _catalog,
          "drift-Laplacian catalog multiplicities follow the factor convolution law"),
    Check("spectrum.lambda1", 0.0, _first_eigenvalue,
          "the first nonzero drift eigenvalue is at least 1/2"),
    Check("dimension.count_bound", 0.0, _dimension_bound,
          "dim O_d <= 1 + floor(count[1/2, d/2]/2) for d = 1..6"),
    Check("dimension.equality_d1", 0.0, _equality_d1,
          "linear growth saturates the bound with dim O_1 = m+1 exactly on the flat model"),
    Check("decomposition.roundtrip", 1e-10, _decomposition,
          "eigenvalue splitting reconstructs random degree-6 polynomials to 1e-10"),
    Check("decomposition.growth", 0.0, _decomposition_growth,
          "every eigenpart is a flow eigenfunction with degree equal to twice its eigenvalue"),
    Check("frequency.sharp_closed", 1e-8, partial(_frequency_sharp, method="closed"), _SHARP,
          note="tol={tol}"),
    Check("frequency.sharp_quadrature", 1e-4, partial(_frequency_sharp, method="quadrature"),
          _SHARP, note="tol={tol}"),
    Check("frequency.i_prime", 1e-5, _i_prime,
          "the derivative of the height function matches flux plus curvature correction",
          note="Richardson-extrapolated central difference, h = 1e-3 r, tol 1e-5"),
    Check("frequency.dirichlet_gap", 1e-6, _dirichlet_gap,
          "bulk and boundary Dirichlet energies agree (divergence theorem)",
          note="resolution=256, relative tol 1e-6"),
    Check("geometry.volume_identity", 1e-10, _volume_identity,
          "n V(r) - r V'(r) equals the scalar-curvature boundary correction",
          note="tol={tol}", curved_tol=1e-6),
    Check("geometry.normalization", 1e-12, _normalization,
          "S + |grad f|^2 = f and |grad b|^2 = 1 - 4S/b^2 pointwise"),
    Check("frequency.rho_mu", 0.0, _rho_mu,
          "derivative-pair energy ratio stays below e^{2p+6} d^2 (flat case: equals d^2/4)"),
    Check("frequency.monotone", 0.0, _monotone,
          "damped frequency plus its compensator is nondecreasing on a holdout grid",
          note="constants calibrated on a disjoint grid"),
    Check("frequency.doubling", 0.0, _doubling,
          "doubling and three-circle growth bounds hold with positive margin"),
    Check("frequency.j_ledger", 0.0, _j_ledger,
          "nested shell energies satisfy the three-shell comparison bound"),
    Check("frequency.k_lemma", 1e-5, _k_lemma,
          "curvature-weighted level defects satisfy the first-variation recursion"),
    Check("spectrum.oracle_1d", 1e-6, _oracle_1d,
          "discretized flat-line drift spectrum reproduces {0, 1/2, 1, 3/2, 2}",
          note="X=12, N=800, tol 1e-6", per_model=False),
    Check("fheat.series_vs_oracle", 1e-3, _heat_oracle,
          "implicit time stepping matches the eigen-series at s=1 in weighted L2",
          note="N=800, 200 steps, tol 1e-3", per_model=False),
    Check("fheat.transform", 0.0, _heat_transform,
          "caloric polynomials map to eternal drift-heat solutions with zero residual",
          per_model=False),
    Check("fheat.energy_decay", 0.0, _heat_energy_decay,
          "weighted energy of a series solution is nonincreasing in drift time", per_model=False),
    Check("forms.eigen_law", 0.0, _forms_eigen_law,
          "the weighted Hodge Laplacian is diagonal on monomial forms with (|alpha|+p)/2",
          per_model=False),
    Check("forms.interior_nilpotent", 0.0, _forms_nilpotent,
          "the contraction with the soliton field squares to zero", per_model=False),
    Check("forms.one_form_bound", 0.0, _one_form_bound,
          "no 1-form eigenvalue lies below 1/2 (spectral Liouville statement)", per_model=False),
    Check("forms.count_bound", 0.0, _form_count,
          "form dimensions are bounded by eigenvalue counts up to mu/2 + p Lambda",
          per_model=False),
    Check("forms.sharpness", 0.0, _forms_sharpness,
          "the constant 1-form attains the counting horizon mu/2 + p Lambda exactly",
          per_model=False),
    Check("forms.kernel_syzygy", 0.0, _kernel_syzygy,
          "contraction kernels on two flat variables are spanned by syzygies", per_model=False),
    Check("forms.kernel_integral", 1e-6, _kernel_integral,
          "the weighted growth integral of a kernel form is nonpositive", per_model=False),
    Check("forms.reduction_ledger", 0.0, _form_reduction,
          "form counting reduces to function counting plus contraction kernels",
          per_model=False),
]


def _model_tag(model: ModelShrinker) -> str:
    """gaussian_m<m>, cylinder, or a product's factor tags joined by _x_."""
    if model.factors:
        return "_x_".join(_model_tag(factor) for factor in model.factors)
    return "cylinder" if model.sphere_factors else f"gaussian_m{model.flat_m}"


def _run_check(check: Check, model: ModelShrinker | None = None) -> CheckResult:
    """Run one row (on `model` for per-model rows) and time it.

    A measure that raises is reported as a failed check under the row's name.
    """
    name, tol = check.name, check.tol
    if model is not None:
        name = f"{name}.{_model_tag(model)}"
        if model.sup_S > 0 and check.curved_tol is not None:
            tol = check.curved_tol
    result = CheckResult(name=name, statement=check.statement, status="fail")
    t0 = time.perf_counter()
    try:
        out = check.measure() if model is None else check.measure(model)
    except Exception as exc:  # a crashed check is a failed check with diagnostics
        result.detail = f"{type(exc).__name__}: {exc}"
    else:
        if not isinstance(out, tuple):
            out = (out, check.note.format(tol=tol))
        residual, result.detail = out
        result.margin = float(tol - residual)
        result.status = "pass" if result.margin >= 0 else "fail"
    result.runtime_ms = int(1000 * (time.perf_counter() - t0))
    return result


def verify_all(models: list[ModelShrinker] | None = None,
               config_echo: dict | None = None) -> VerificationReport:
    """Run every check of the table: per-model rows on each model, then the global rows."""
    if models is None:
        models = [gaussian(2), cylinder()]
    results = [_run_check(c, model) for model in models for c in CHECKS if c.per_model]
    results += [_run_check(c) for c in CHECKS if not c.per_model]
    return VerificationReport(checks=results, config_echo=config_echo or {})
