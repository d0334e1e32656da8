"""Generated-input properties of the frequency functional and its relatives.

Systems have up to 6 distinct eigenvalues in [1e-3, 1e4], each repeated up
to 3 times.  States mix exact zeros with entries spread over up to 300
decades, at an overall scale anywhere in 1e-290 … 1e290; some of them sit
on a single eigenvalue group, where rounding meets the spectral hull.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from obskit import (
    SpectralSystem,
    frequency,
    frequency_report,
    key_identity_gap,
    residual_shifted,
    windowed_frequency,
)

U = np.finfo(float).eps


@st.composite
def systems(draw):
    values = draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    lam = np.sort(np.repeat(values, repeats))
    return SpectralSystem(eigenvalues=lam, gram=np.eye(lam.size))


@st.composite
def states(draw, eigenvalues):
    size = eigenvalues.size
    scale = draw(st.integers(-290, 290))
    decades = draw(st.lists(st.one_of(st.none(), st.integers(-300, 0)), min_size=size, max_size=size))
    decades[draw(st.integers(0, size - 1))] = 0  # never the zero state
    if draw(st.booleans()):  # supported on one eigenvalue group only
        group = eigenvalues == eigenvalues[decades.index(0)]
        decades = [d if g else None for d, g in zip(decades, group)]
    z = np.zeros(size, dtype=complex)
    for k, d in enumerate(decades):
        if d is not None:
            r = draw(st.floats(0.5, 1.0))
            phase = draw(st.floats(0.0, 2.0 * math.pi))
            z[k] = r * 10.0 ** (scale + d) * complex(math.cos(phase), math.sin(phase))
    return z


@st.composite
def systems_and_states(draw):
    sys_ = draw(systems())
    return sys_, draw(states(sys_.eigenvalues))


@given(systems_and_states(), st.data())
def test_key_identity_gap_at_roundoff(pair, data):
    sys_, z = pair
    lam_z = frequency(z, sys_)
    lam = data.draw(
        st.one_of(
            st.floats(-1e4, 2e4),
            st.sampled_from(sys_.eigenvalues.tolist()),
            st.floats(-1e-6, 1e-6).map(lambda t: lam_z * (1.0 + t)),
        )
    )
    gap = key_identity_gap(z, lam, sys_)
    # Both sides carry round-off of about u·S·d·‖z‖² against LHS = d²‖z‖², with
    # S = max(|λ|, λ_max) and d the RMS distance of the state's spectrum from λ:
    # the relative gap is O(u(1 + S/d)), not O(u), when λ nears λ(z).
    d = math.sqrt((lam - lam_z) ** 2 + residual_shifted(z, sys_))
    if d == 0.0:
        assert gap == 0.0
    else:
        assert gap <= 16 * U * (1.0 + max(abs(lam), sys_.lambda_max) / d)


@given(systems_and_states())
def test_frequency_in_spectral_hull(pair):
    sys_, z = pair
    assert sys_.lambda_min <= frequency(z, sys_) <= sys_.lambda_max


@given(systems_and_states())
def test_residual_shifted_nonnegative_and_matches_moment_form(pair):
    sys_, z = pair
    shifted = residual_shifted(z, sys_)
    assert shifted >= 0.0
    assert abs(shifted - frequency_report(z, sys_).residual) <= 8 * U * sys_.lambda_max**2


@given(systems_and_states(), st.floats(0.01, 100.0), st.floats(-100.0, 1.01e4))
def test_windowed_frequency_in_spectral_hull(pair, T, tau):
    sys_, z = pair
    assert sys_.lambda_min <= windowed_frequency(z, sys_, T, tau) <= sys_.lambda_max
