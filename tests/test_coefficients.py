import math
from dataclasses import replace

import numpy as np
import pytest

from burgerslab.coefficients import (
    CoefficientSet,
    SampleBox,
    audit_assumptions,
    average_coefficients,
    burgers_multiscale_family,
    estimate_kappa,
    make_burgers_set,
    make_multiscale_set,
    time_average,
)


class TestBurgersSet:
    def test_analytic_derivative(self):
        cs = make_burgers_set(1.0)
        assert float(cs.dg_dz(0.3, 3.0)) == pytest.approx(3.0, rel=1e-14)

    def test_zero_convection(self):
        cs = make_burgers_set(0.0)
        z = np.linspace(-4, 4, 9)
        assert np.all(cs.g(1.0, z) == 0.0)

    def test_audit_recovers_convection_slope(self):
        # max of |a_g z| / (1+|z|) over z in [-10, 10] is a_g * 10/11
        cs = make_burgers_set(2.0)
        report = audit_assumptions(cs, SampleBox(z=(-10, 10)), n_samples=4000, seed=1)
        assert report.l_g_hat == pytest.approx(2.0 * 10.0 / 11.0, rel=0.01)
        assert report.violations == []

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(ValueError):
            CoefficientSet(
                g=lambda t, z: np.asarray(z, float) ** 2,
                dg_dz=lambda t, z: np.asarray(z, float),  # wrong by factor 2
                f=lambda t, x, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))),
                sigma=lambda t, x, z: np.zeros((1,) + np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))),
                d=1,
            )

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_burgers_set(1.0, noise_profile="levy")


class TestMultiscaleSet:
    def test_zero_amplitude_is_average(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=0.0, c1=1.0, c2=0.3)
        x = np.linspace(0.1, 0.9, 5)
        z = np.linspace(-2, 2, 5)
        for s in (0.0, 3.7, 1e4):
            assert np.array_equal(ms.f(s, x, z), avg.f(s, x, z))
            assert np.array_equal(ms.sigma(s, x, z), avg.sigma(s, x, z))

    def test_decay_to_average(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        x, z = np.array([0.5]), np.array([1.0])
        dev = abs(float((ms.f(1e8, x, z) - avg.f(0.0, x, z))[0]))
        assert dev < 2e-4

    def test_closed_form_time_average(self):
        # (1/T) ∫ (1+s)^(-1) ds = log(1+T)/T for the squared f deviation
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        x, z = np.array([0.5]), np.array([0.0])
        fb = avg.f(0.0, x, z)
        mean_sq = float(time_average(lambda s: (ms.f(s, x, z) - fb) ** 2, 100.0)[0])
        assert mean_sq == pytest.approx(math.log(101.0) / 100.0, rel=1e-6)
        assert mean_sq == pytest.approx(0.04615, abs=2e-4)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            make_multiscale_set(make_burgers_set(), beta=0.0, amplitude=1.0)


class TestAverageCoefficients:
    def test_exact_on_time_constant(self):
        cs = make_burgers_set(0.5, noise_profile="bounded", c1=2.0, c2=-0.5)
        avg = average_coefficients(cs, t_hat=50.0)
        x = np.linspace(0.05, 0.95, 7)
        z = np.linspace(-3, 3, 7)
        assert avg.f(0.0, x, z) == pytest.approx(cs.f(0.0, x, z), rel=1e-13)
        assert avg.sigma(0.0, x, z) == pytest.approx(cs.sigma(0.0, x, z), rel=1e-13)
        assert (avg.g, avg.dg_dz, avg.d) == (cs.g, cs.dg_dz, cs.d)

    def test_decaying_perturbation_mean(self):
        # (1/T) ∫ (1+s)^(-1/2) ds = (2 sqrt(1+T) - 2)/T ~ 2/sqrt(T)
        base = make_burgers_set(0.0, c1=1.0)
        ms = make_multiscale_set(base, beta=0.5, amplitude=1.0)
        t_hat = 1e4
        avg = average_coefficients(ms, t_hat=t_hat)
        x, z = np.array([0.5]), np.array([1.3])
        drift = abs(float((avg.f(0.0, x, z) - base.f(0.0, x, z))[0]))
        expected = (2.0 * math.sqrt(1.0 + t_hat) - 2.0) / t_hat
        assert drift == pytest.approx(expected, rel=1e-4)
        assert drift <= 2e-2

    def test_linearity_in_the_set(self):
        a = burgers_multiscale_family(beta=0.5, amplitude=0.7, c1=1.0)[0]
        b = burgers_multiscale_family(beta=1.5, amplitude=0.4, c2=0.3)[0]
        combo = CoefficientSet(
            g=a.g, dg_dz=a.dg_dz,
            f=lambda t, x, z: a.f(t, x, z) + b.f(t, x, z),
            sigma=lambda t, x, z: a.sigma(t, x, z) + b.sigma(t, x, z),
            d=1,
        )
        x, z = np.array([0.3, 0.8]), np.array([-1.0, 2.0])
        fa = average_coefficients(a, 25.0).f(0.0, x, z)
        fb = average_coefficients(b, 25.0).f(0.0, x, z)
        fc = average_coefficients(combo, 25.0).f(0.0, x, z)
        assert fc == pytest.approx(fa + fb, rel=1e-13)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            average_coefficients(make_burgers_set(0.0), t_hat=0.0)


class TestEstimateKappa:
    def test_zero_amplitude_zero_kappa(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=0.0)
        ks = estimate_kappa(ms, avg, [10.0, 100.0], [-1, 0, 1], [0.25, 0.75])
        assert all(k == 0.0 for _, k in ks)

    def test_beta_half_closed_form(self):
        # f and the single sigma channel each contribute amp^2 (1+s)^(-1),
        # maximized at z = 0: kappa(T) = 2 log(1+T)/T
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        ks = estimate_kappa(
            ms, avg, [1e2, 1e3, 1e4], np.linspace(-3, 3, 7), np.linspace(0.1, 0.9, 5)
        )
        for t_hat, k in ks:
            assert k == pytest.approx(2.0 * math.log(1.0 + t_hat) / t_hat, rel=0.10)

    def test_nonincreasing(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        ks = estimate_kappa(ms, avg, [10.0, 100.0, 1000.0], [-1, 0, 2], [0.3, 0.6])
        values = [k for _, k in ks]
        assert values[0] > values[1] > values[2]

    def test_channel_relabeling_invariance(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0, d=2)

        def swapped(callables):
            def inner(*args):
                return callables(*args)[::-1]
            return inner

        ms_swapped = CoefficientSet(
            g=ms.g, dg_dz=ms.dg_dz, f=ms.f, sigma=swapped(ms.sigma), d=2
        )
        avg_swapped = CoefficientSet(
            g=avg.g, dg_dz=avg.dg_dz, f=avg.f, sigma=swapped(avg.sigma), d=2
        )
        a = estimate_kappa(ms, avg, [50.0], [-1, 1], [0.5])
        b = estimate_kappa(ms_swapped, avg_swapped, [50.0], [-1, 1], [0.5])
        assert a[0][1] == pytest.approx(b[0][1], rel=1e-13)

    def test_bad_inputs(self):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0)
        with pytest.raises(ValueError):
            estimate_kappa(ms, avg, [100.0, 10.0], [0], [0.5])
        with pytest.raises(ValueError):
            estimate_kappa(ms, avg, [10.0], [], [0.5])


class TestAudits:
    def test_quadratic_g_on_box(self):
        # |z|/(1+|z|) approaches 5/6 at the box corner |z| = 5
        cs = make_burgers_set(1.0)
        report = audit_assumptions(cs, SampleBox(z=(-5, 5)), n_samples=4000, seed=3)
        assert report.l_g_hat == pytest.approx(5.0 / 6.0, rel=0.02)

    def test_decreasing_drift_monotone_constant(self):
        cs = CoefficientSet(
            g=lambda t, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))),
            dg_dz=lambda t, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))),
            f=lambda t, x, z: -np.asarray(z, float)
            + np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))),
            sigma=lambda t, x, z: np.ones(
                (1,) + np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))
            ),
            d=1,
        )
        report = audit_assumptions(cs, SampleBox(), n_samples=1000, seed=4)
        assert report.l_f_monotone_hat <= 0.0 + 1e-12

    def test_superlinear_sigma_flagged(self):
        cs = CoefficientSet(
            g=lambda t, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))),
            dg_dz=lambda t, z: np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))),
            f=lambda t, x, z: np.zeros(
                np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))
            ),
            sigma=lambda t, x, z: np.asarray(z, float)[None, ...] ** 2
            + np.zeros((1,) + np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(z))),
            d=1,
        )
        report = audit_assumptions(
            cs, SampleBox(z=(-1e4, 1e4)), n_samples=2000, seed=5
        )
        flagged = [name for name, _ in report.violations]
        assert "H_sigma growth" in flagged
        witness = dict(report.violations)["H_sigma growth"]
        assert len(witness) == 3  # (t, x, z) point

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            SampleBox(z=(1.0, 1.0))


class TestAveragedConstants:
    def test_averaged_set_inherits_bounds(self):
        # the averaged reaction keeps the one-sided slope, its growth is at
        # most doubled, and the averaged noise keeps Lipschitz within 3x
        ms, avg = burgers_multiscale_family(
            beta=0.5, amplitude=0.5, c1=1.5, c2=0.2, noise_profile="bounded"
        )
        box = SampleBox(t=(0.0, 20.0), z=(-4, 4))
        fast = audit_assumptions(ms, box, n_samples=3000, seed=6)
        slow = audit_assumptions(avg, box, n_samples=3000, seed=7)
        l_f = max(fast.l_f_monotone_hat, fast.l_f_growth_hat)
        tol = 1.05
        assert slow.l_f_monotone_hat <= tol * l_f
        assert slow.l_f_growth_hat <= 2.0 * tol * l_f
        assert slow.l_sigma_hat <= 3.0 * tol * fast.l_sigma_hat


# every argument shape the package passes a callback: (name, t, x, z)
_Z = np.array([-1e200, -3.5, -1.0, -1e-300, -0.0, 0.0, 5e-324, 0.25, 2.0, 1e200])
CALL_SHAPES = [
    # the solver: a float t, the nodes and the (P, m) states (g sees them ghost-padded)
    ("solver", 0.37, np.linspace(0.1, 0.9, 5), np.resize(_Z, (2, 5))),
    ("solver_one_row", 0.0, np.linspace(0.1, 0.9, 10), _Z[None].copy()),
    # the audits: t, x and z sampled alike
    ("audit", np.linspace(0.0, 1.0, 10), np.linspace(0.05, 0.95, 10), _Z.copy()),
    # estimate_kappa: a float s over flattened (x, z) samples
    ("kappa", 12.5, np.linspace(0.05, 0.95, 10), _Z.copy()),
    # the averaging block functional: times down, nodes across
    ("averaging_block", np.linspace(0.0, 3.0, 4)[:, None], np.linspace(0.1, 0.9, 10)[None],
     _Z[None].copy()),
    # the derivative spot check
    ("scalar", 1.7, 0.4, -2.3),
]

BUILTIN_SETS = {
    "constant_burgers": lambda: make_burgers_set(0.0, c2=-1.0, sigma_amp=0.25),
    "zero_noise": lambda: make_burgers_set(0.0, noise_profile="zero"),
    "full_burgers_d2": lambda: make_burgers_set(1.0, noise_profile="bounded", c1=0.5, c2=-2.0,
                                                d=2),
    "multiscale": lambda: burgers_multiscale_family(beta=0.5, amplitude=1.0)[0],
    "multiscale_d2": lambda: burgers_multiscale_family(beta=0.5, amplitude=0.7, a_g=0.8,
                                                       noise_profile="bounded", c1=1.0, d=2)[0],
    "family_average": lambda: burgers_multiscale_family(beta=0.5, amplitude=1.0)[1],
    "cesaro_average": lambda: average_coefficients(
        burgers_multiscale_family(beta=0.5, amplitude=0.7, noise_profile="bounded", c1=1.0,
                                  d=2)[0], 4.0),
}


class TestCallbackShapes:
    @pytest.mark.parametrize("name, call", [
        pytest.param(name, call, id=f"{name}-{call[0]}")
        for name in BUILTIN_SETS for call in CALL_SHAPES
    ])
    def test_broadcast_shape(self, name, call):
        cs = BUILTIN_SETS[name]()
        _, t, x, z = call
        with np.errstate(over="ignore"):
            assert np.shape(cs.g(t, z)) == np.broadcast(t, z).shape
            assert np.shape(cs.dg_dz(t, z)) == np.broadcast(t, z).shape
            assert np.shape(cs.f(t, x, z)) == np.broadcast(t, x, z).shape
            assert np.shape(cs.sigma(t, x, z)) == (cs.d,) + np.broadcast(t, x, z).shape
            if np.ndim(z) == 2:
                padded = np.pad(z, ((0, 0), (1, 1)))
                assert np.shape(cs.g(t, padded)) == np.broadcast(t, padded).shape

    @pytest.mark.parametrize("call", CALL_SHAPES, ids=[c[0] for c in CALL_SHAPES])
    def test_average_ignores_t_in_the_broadcast_shape(self, call):
        # f and sigma of the averaged set have the bits of one quadrature at
        # every t, spread over the full broadcast shape of (t, x, z)
        ms = burgers_multiscale_family(beta=0.5, amplitude=0.7, noise_profile="bounded",
                                       c1=1.0, d=2)[0]
        avg = average_coefficients(ms, 4.0)
        _, t, x, z = call
        shape = np.broadcast(t, x, z).shape
        with np.errstate(over="ignore", invalid="ignore"):
            for name, lead in (("f", ()), ("sigma", (2,))):
                a = getattr(avg, name)(t, x, z)
                b = getattr(avg, name)(np.asarray(t) + 7.25, x, z)
                assert a.shape == b.shape == lead + shape
                assert _same_bits(a, b)


def _formula_set(a_g, profile, c1, c2, sigma_amp, d):
    """make_burgers_set's formulas in full, evaluated on every call."""

    def spread(value, *args, lead=()):
        # broadcast_to, not + zeros: adding +0 would turn a -0.0 into +0.0
        return np.broadcast_to(value, lead + np.broadcast(*args).shape)

    def channel(t, x, z):
        if profile == "additive":
            return spread(float(sigma_amp), t, x, z)
        if profile == "bounded":
            return spread(sigma_amp * (0.5 + z / (1.0 + z * z)), t, x, z)
        return spread(0.0, t, x, z)

    return {
        "g": lambda t, z: spread(0.5 * a_g * z * z, t, z),
        "dg_dz": lambda t, z: spread(a_g * z, t, z),
        "f": lambda t, x, z: spread(c1 * z / (1.0 + z * z) + c2, t, x, z),
        "sigma": lambda t, x, z: spread(channel(t, x, z), t, x, z, lead=(d,)),
    }


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


class TestConstantCallbacks:
    """A builtin coefficient that does not depend on the state keeps its formula's bits.

    z holds both signed zeros, a subnormal and magnitudes whose square
    overflows, so a constant that loses the sign of a zero shows.
    """

    @pytest.mark.parametrize("kwargs", [
        dict(a_g=0.0),
        dict(a_g=-0.0),
        dict(a_g=0.0, c1=0.0, c2=-1.0, sigma_amp=0.25),
        dict(a_g=0.0, c1=0.0, c2=-0.0),
        dict(a_g=0.0, c1=-0.0, c2=0.0, noise_profile="zero"),
        dict(a_g=0.0, c1=0.0, c2=-1.0, noise_profile="bounded", d=2),
        dict(a_g=1.0, c1=0.5, c2=-0.0, noise_profile="additive", d=3),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    @pytest.mark.parametrize("call", CALL_SHAPES, ids=[c[0] for c in CALL_SHAPES])
    def test_burgers_set_equals_formula(self, kwargs, call):
        full = dict(noise_profile="additive", c1=0.0, c2=0.0, sigma_amp=1.0, d=1)
        full.update(kwargs)
        cs = make_burgers_set(full.pop("a_g"), **full)
        ref = _formula_set(kwargs["a_g"], full["noise_profile"], full["c1"], full["c2"],
                           full["sigma_amp"], full["d"])
        _, t, x, z = call
        with np.errstate(over="ignore"):
            assert _same_bits(cs.g(t, z), ref["g"](t, z))
            assert _same_bits(cs.dg_dz(t, z), ref["dg_dz"](t, z))
            assert _same_bits(cs.f(t, x, z), ref["f"](t, x, z))
            assert _same_bits(cs.sigma(t, x, z), ref["sigma"](t, x, z))

    def test_constant_sets_are_constant_callbacks(self):
        # what the solver calls at a_g = 0 and c1 = 0 does no arithmetic on z
        cs = make_burgers_set(0.0, c2=-1.0)
        z = np.array([[np.nan, np.inf, -np.inf]])
        assert np.array_equal(cs.g(0.0, z), np.zeros((1, 3)))
        assert np.array_equal(cs.f(0.0, np.zeros(3), z), np.full((1, 3), -1.0))
        # -0.0 + 0 * z takes the sign of z, so that f keeps its formula
        signed = make_burgers_set(0.0, c2=-0.0)
        with np.errstate(invalid="ignore"):
            assert np.isnan(signed.f(0.0, np.zeros(3), z)).all()

    @pytest.mark.parametrize("make, constant", [
        (lambda: make_burgers_set(0.0, c2=-1.0, d=2), {"g", "f", "sigma"}),
        (lambda: make_burgers_set(0.0, noise_profile="zero"), {"g", "f", "sigma"}),
        (lambda: make_burgers_set(0.0, noise_profile="bounded"), {"g", "f"}),
        (lambda: make_burgers_set(1.0, c1=0.5), {"sigma"}),
        (lambda: make_burgers_set(-0.0, c2=-0.0), {"sigma"}),
        (lambda: burgers_multiscale_family(beta=0.5, amplitude=1.0)[0], {"g"}),
    ], ids=["all", "zero-noise", "bounded", "a_g=1,c1=0.5", "signed-zeros", "multiscale"])
    def test_set_records_its_constant_callbacks(self, make, constant):
        cs = make()
        assert cs.constant == constant
        # derived again by replace, and never an __init__ argument
        assert replace(cs, f=lambda t, x, z: cs.f(t, x, z)).constant == constant - {"f"}
        with pytest.raises(TypeError):
            CoefficientSet(g=cs.g, dg_dz=cs.dg_dz, f=cs.f, sigma=cs.sigma, d=cs.d,
                           constant=frozenset())

    @pytest.mark.parametrize("kwargs, constant", [
        (dict(), {"g", "f", "sigma"}),
        (dict(noise_profile="bounded", d=2), {"g", "f"}),
        (dict(a_g=0.8, c1=0.5), {"sigma"}),
        (dict(c2=-0.0, noise_profile="bounded"), {"g"}),
    ], ids=["all", "bounded", "a_g,c1", "signed-zero"])
    def test_family_average_is_the_base_set(self, kwargs, constant):
        ms, avg = burgers_multiscale_family(beta=0.5, amplitude=1.0, **kwargs)
        base = make_burgers_set(**kwargs)
        assert avg.constant == base.constant == constant
        assert avg.d == base.d
        # the fast set shares g and dg_dz, and only g can be constant there
        assert (ms.g, ms.dg_dz) == (avg.g, avg.dg_dz)
        assert ms.constant == constant & {"g"}
        # wrapping the built averaged set, as a tracer does, keeps both records
        # and does not reach the callables the fast set read when it was built
        calls = []
        for name in ("g", "dg_dz", "f", "sigma"):
            def counted(*args, fn=getattr(avg, name), name=name):
                calls.append(name)
                return fn(*args)
            object.__setattr__(avg, name, counted)
        assert avg.constant == constant and ms.constant == constant & {"g"}
        x, z = np.linspace(0.1, 0.9, 5), np.linspace(-2.0, 2.0, 5)
        for t in (0.0, 0.3):
            ms.g(t, z), ms.dg_dz(t, z), ms.f(t, x, z), ms.sigma(t, x, z)
        assert calls == []
        # a Cesaro average is evaluated per call; only g passes through
        assert average_coefficients(ms, 10.0).constant == constant & {"g"}
