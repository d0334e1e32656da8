"""Rate-function families: positivity, monotonicity, exact composite widths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obskit import PowerLaw, TransformedWidth
from obskit.decay import DecayFunction
from obskit.errors import DomainError


class TestFamilies:
    def test_constant_values(self):
        f = PowerLaw(0.3, 0.0)
        assert f(0.0) == 0.3
        assert f(1e6) == 0.3
        assert f(math.inf) == 0.3
        assert f(np.array([0.0, 5.0])).tolist() == [0.3, 0.3]

    def test_power_law_values(self):
        f = PowerLaw(2.0, 1.0)
        assert f(0.0) == pytest.approx(2.0)
        assert f(1.0) == pytest.approx(1.0)
        assert f(3.0) == pytest.approx(0.5)
        g = PowerLaw(1.0, 2.0)
        assert g(9.0) == pytest.approx(0.01)

    def test_power_past_the_float_range_reads_zero(self):
        # (1 + 1e200)² overflows: the rate there is 0, with no warning.
        assert PowerLaw(1.0, 2.0)(1e200) == 0.0
        assert PowerLaw(1.0, 2.0)(np.array([1.0, 1e200])).tolist() == [0.25, 0.0]
        width = TransformedWidth(psi=PowerLaw(1.0, 2.0), admissibility=1.0, base_width=1.0)
        assert width(1e200) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            PowerLaw(-1.0, 0.0)
        with pytest.raises(DomainError):
            PowerLaw(1.0, -0.5)
        with pytest.raises(DomainError):
            PowerLaw(0.0, 1.0)
        with pytest.raises(DomainError):
            PowerLaw(math.inf, 1.0)

    def test_scaled(self):
        assert PowerLaw(2.0, 0.0).scaled(3.0) == PowerLaw(6.0, 0.0)
        f = PowerLaw(2.0, 1.0).scaled(0.25)
        assert f.c == pytest.approx(0.5)
        assert f.p == 1.0
        g = PowerLaw(1.0, 0.5).scaled(4.0)
        assert g.c == pytest.approx(4.0)
        assert g.p == 0.5
        with pytest.raises(DomainError):
            PowerLaw(1.0, 0.0).scaled(0.0)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 0.5, 1.37])
@given(
    lam=st.lists(
        st.one_of(st.floats(0.0, 1e6), st.floats(-6.0, 6.0).map(lambda u: 10.0**u)),
        min_size=1,
        max_size=64,
    )
)
def test_power_law_scalar_equals_array_bitwise(p, lam):
    f = PowerLaw(0.7, p)
    grid = np.array(lam)
    batch = f(grid)
    assert batch.shape == grid.shape
    assert [f(x) for x in lam] == batch.tolist()
    assert [f(np.float64(x)) for x in lam] == batch.tolist()
    assert f(grid.reshape(-1, 1)).ravel().tolist() == batch.tolist()


class TestTransformedWidth:
    def test_constant_inputs_exact_arithmetic(self):
        # strength 1, admissibility 1, base width 1: 0.5 / (2/1 + 1/1) = 1/6
        w = TransformedWidth(psi=PowerLaw(1.0, 0.0), admissibility=1.0, base_width=1.0)
        assert w(0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert w(100.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_power_law_substitution(self):
        # strength d/(1+x), base width 1/2: 0.5 / (2M(1+x)/d + 2)
        d, m = 0.4, 3.0
        w = TransformedWidth(psi=PowerLaw(d, 1.0), admissibility=m, base_width=0.5)
        for lam in [0.0, 1.0, 10.0, 1e3]:
            expected = 0.5 / (2.0 * m * (1.0 + lam) / d + 2.0)
            assert w(lam) == pytest.approx(expected, rel=1e-14)

    def test_vector_evaluation(self):
        w = TransformedWidth(psi=PowerLaw(1.0, 1.0), admissibility=2.0, base_width=1.0)
        grid = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(w(grid), [w(0.0), w(1.0), w(2.0)], rtol=1e-14)

    def test_nonincreasing_and_positive_until_the_strength_underflows(self):
        w = TransformedWidth(psi=PowerLaw(1.0, 2.0), admissibility=5.0, base_width=0.25)
        values = w(np.array([0.0, 1.0, 10.0, 1.0e3, 1.0e6, 1.0e150]))
        assert np.all(values > 0) and np.all(np.diff(values) <= 0)
        # 2M/ψ overflows, then divides by zero, as ψ falls to 0: the width reads 0
        f = TransformedWidth(psi=PowerLaw(1e-300, 4.0), admissibility=1.0, base_width=1.0)
        assert f(1.0e6) == 0.0
        assert f(np.array([0.0, 1.0e6])).tolist() == [f(0.0), 0.0]

    def test_strength_must_be_a_power_law(self):
        class Rising(DecayFunction):
            def __call__(self, lam):
                return 1.0 + np.asarray(lam, dtype=float)

        for psi in (Rising(), TransformedWidth(psi=PowerLaw(1.0, 0.0), admissibility=1.0, base_width=1.0)):
            with pytest.raises(TypeError, match="PowerLaw strength"):
                TransformedWidth(psi=psi, admissibility=1.0, base_width=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            TransformedWidth(psi=PowerLaw(1.0, 0.0), admissibility=0.0, base_width=1.0)
        with pytest.raises(DomainError):
            TransformedWidth(psi=PowerLaw(1.0, 0.0), admissibility=1.0, base_width=-1.0)
        with pytest.raises(DomainError):
            TransformedWidth(psi=PowerLaw(1.0, 0.0), admissibility=math.inf, base_width=1.0)
