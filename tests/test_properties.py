"""Generated-input properties of the frequency functional and its relatives,
of the observability kernel, and of config digests and report bytes.

Systems have up to 6 distinct eigenvalues in [1e-3, 1e4], each repeated up
to 3 times.  States mix exact zeros with entries spread over up to 300
decades, at an overall scale anywhere in 1e-290 … 1e290; some of them sit
on a single eigenvalue group, where rounding meets the spectral hull.
Kernel systems add ties, near-ties on both sides of the series branch and
random low-rank Grams, at horizons over six decades.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit import (
    SpectralSystem,
    frequency,
    frequency_report,
    kernel_psd_margin,
    key_identity_gap,
    load_config,
    residual_shifted,
    windowed_frequency,
)
from obskit.cli import main
from obskit.evolution import SERIES_THRESHOLD, TIE_TOL

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


@st.composite
def kernel_systems(draw):
    """(system, T): clusters of exact ties and of gaps below, inside and just
    above the series range |Δ|·T < SERIES_THRESHOLD, with a random PSD Gram."""
    T = 10.0 ** draw(st.floats(-3.0, 3.0))
    lam = []
    for value in draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=5)):
        lam.append(value)
        for gap in draw(st.lists(st.sampled_from(("tie", "below-tol", "series", "direct")), max_size=3)):
            scale = {"tie": 0.0, "below-tol": TIE_TOL, "series": SERIES_THRESHOLD / T,
                     "direct": 100.0 * SERIES_THRESHOLD / T}[gap]
            lam.append(lam[-1] + scale * draw(st.floats(0.01, 0.99)))
    lam = np.sort(lam)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, lam.size))
    factor = rng.standard_normal((lam.size, rank)) + 1j * rng.standard_normal((lam.size, rank))
    gram = factor @ factor.conj().T
    return SpectralSystem(eigenvalues=lam, gram=(gram + gram.conj().T) / 2.0), T


@settings(max_examples=200)
@given(kernel_systems())
def test_observability_kernel_positive_semidefinite(pair):
    sys_, T = pair
    low, high = kernel_psd_margin(sys_, T)
    assert high > 0.0
    assert low >= -1e-10 * high


def _angle(value):
    return st.sampled_from((value, f"{round(value / math.pi * 4)}pi/4"))


@st.composite
def config_documents(draw):
    """A valid config document for a cheap scenario, keys in canonical order."""
    scenario = draw(st.sampled_from(("coercivity-scan", "resolvent-scan", "admissibility")))
    if draw(st.booleans()):
        sides = draw(st.lists(st.sampled_from(("bottom", "left", "top", "right")),
                              min_size=1, max_size=2, unique=True))
        gamma = [{"side": side, "alpha": draw(_angle(0.0)), "beta": draw(_angle(math.pi))}
                 for side in sides]
        system = {"type": "square", "n_max_eigenvalue": draw(st.integers(5, 40)), "gamma": gamma}
    else:
        n = draw(st.integers(2, 4))
        eig = sorted(draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True)))
        gram = [[[float(n), 0.0] if j == k else [0.25, 0.125 * (k - j)] for k in range(n)]
                for j in range(n)]
        system = {"type": "custom", "eigenvalues": eig, "gram": gram}
    doc = {"scenario": scenario, "system": system}
    for key, values in (("epsilon_cluster", st.sampled_from((0.25, 0.5))),
                        ("trials", st.integers(1, 3)),
                        ("seed", st.integers(0, 10**6)),
                        ("T", st.sampled_from((0.5, 2.0)))):
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


def _reordered(obj, data):
    """``obj`` with the keys of every JSON object in a drawn order."""
    if isinstance(obj, dict):
        keys = data.draw(st.permutations(list(obj)))
        return {key: _reordered(obj[key], data) for key in keys}
    if isinstance(obj, list):
        return [_reordered(item, data) for item in obj]
    return obj


@settings(max_examples=25)
@given(config_documents(), st.data())
def test_digest_and_report_bytes_ignore_key_order_and_output_path(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for name in ("a", "b"):
            variant = dict(doc, output_path=str(Path(tmp) / name / "report.json"))
            if name == "b":
                variant = _reordered(variant, data)
            text = json.dumps(variant)
            assert load_config(text).digest() == load_config(json.dumps(doc)).digest()
            assert main([doc["scenario"], "--config", text]) in (0, 2)
            reports.append(Path(variant["output_path"]).read_bytes())
    assert reports[0] == reports[1]
