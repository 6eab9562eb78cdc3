import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmhet import (
    ClusteredDataset,
    Dataset,
    MMParams,
    VarianceSpec,
    mm_mean,
)
from mmhet.core import H_FLOOR, eval_h, mm_gradient, residuals

positive = st.floats(min_value=0.1, max_value=1e4)


def test_mm_mean_boundary_values():
    p = MMParams(100.0, 20.0)
    assert mm_mean(0.0, p) == 0.0
    assert mm_mean(20.0, p) == 50.0
    assert mm_mean(1e12, p) == pytest.approx(100.0, rel=1e-8)


@given(vmax=positive, km=positive)
def test_mm_mean_half_saturation(vmax, km):
    # mu(km) = vmax/2 exactly: km/(km+km) = 0.5 is exact in binary
    assert mm_mean(km, MMParams(vmax, km)) == vmax * 0.5


@given(vmax=positive, km=positive, s1=positive, s2=positive)
def test_mm_mean_monotone_and_bounded(vmax, km, s1, s2):
    p = MMParams(vmax, km)
    lo, hi = sorted([s1, s2])
    assert mm_mean(lo, p) <= mm_mean(hi, p)
    assert mm_mean(hi, p) <= vmax


def test_mm_gradient_closed_form():
    assert np.allclose(mm_gradient(0.0, MMParams(3.0, 7.0)), [0.0, 0.0])
    g = mm_gradient(20.0, MMParams(100.0, 20.0))
    assert g == pytest.approx([0.5, -1.25])


def _fd_gradient(s, params, rel=1e-6):
    out = []
    for j, val in enumerate([params.vmax, params.km]):
        step = rel * abs(val)
        lo = [params.vmax, params.km]
        hi = [params.vmax, params.km]
        lo[j] -= step
        hi[j] += step
        out.append(
            (mm_mean(s, MMParams(*hi)) - mm_mean(s, MMParams(*lo))) / (2 * step)
        )
    return np.array(out)


def test_mm_gradient_matches_finite_difference_spot():
    p = MMParams(83.1, 12.9)
    assert mm_gradient(37.3, p) == pytest.approx(_fd_gradient(37.3, p), rel=1e-6)


def _complex_step_gradient(s, params, h=1e-200):
    # Complex-step differentiation of vmax*s/(km+s): exact to machine
    # precision, no subtractive cancellation (central FD noise exceeds
    # 1e-6 relative when km << s because d mu/d km is tiny there).
    g1 = ((params.vmax + 1j * h) * s / (params.km + s)).imag / h
    g2 = (params.vmax * s / (params.km + 1j * h + s)).imag / h
    return np.array([g1, g2])


@settings(max_examples=200)
@given(s=positive, vmax=positive, km=positive)
def test_mm_gradient_matches_complex_step(s, vmax, km):
    p = MMParams(vmax, km)
    assert mm_gradient(s, p) == pytest.approx(
        _complex_step_gradient(s, p), rel=1e-9, abs=1e-300
    )


def test_eval_h_examples():
    assert eval_h(VarianceSpec.log_shift(), 0.0) == H_FLOOR
    assert eval_h(VarianceSpec.power(0.5), 4.0) == 2.0
    assert eval_h(VarianceSpec.constant(), 57.2) == 1.0


@given(
    s1=st.floats(min_value=0.0, max_value=1e6),
    s2=st.floats(min_value=0.0, max_value=1e6),
    spec=st.sampled_from(
        [VarianceSpec.log_shift(), VarianceSpec.power(0.5), VarianceSpec.power(2.0)]
    ),
)
def test_eval_h_monotone_and_floored(s1, s2, spec):
    lo, hi = sorted([s1, s2])
    assert eval_h(spec, lo) <= eval_h(spec, hi)
    assert eval_h(spec, lo) >= H_FLOOR


def test_variance_spec_parse_and_label():
    assert VarianceSpec.parse("constant") == VarianceSpec.constant()
    assert VarianceSpec.parse("log") == VarianceSpec.log_shift()
    assert VarianceSpec.parse("pow:0.5") == VarianceSpec.power(0.5)
    assert VarianceSpec.parse("POW:2") == VarianceSpec.power(2.0)
    for spec in [VarianceSpec.constant(), VarianceSpec.log_shift(), VarianceSpec.power(0.5)]:
        assert VarianceSpec.parse(spec.label()) == spec


def test_variance_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        VarianceSpec.parse("gauss")
    with pytest.raises(ValueError):
        VarianceSpec.power(-1.0)
    with pytest.raises(ValueError):
        VarianceSpec.power(np.nan)
    with pytest.raises(ValueError):
        VarianceSpec(family="constant", exponent=2.0)


@pytest.mark.parametrize("vmax,km", [(0.0, 20.0), (-1.0, 20.0), (100.0, 0.0), (np.inf, 20.0), (100.0, np.nan)])
def test_mmparams_rejects_invalid(vmax, km):
    with pytest.raises(ValueError):
        MMParams(vmax, km)


def test_residuals_examples(noiseless_data):
    truth = MMParams(100.0, 20.0)
    assert np.all(residuals(noiseless_data, truth) == 0.0)
    shifted = Dataset(s=noiseless_data.s, y=noiseless_data.y + 1.0)
    assert np.allclose(residuals(shifted, truth), 1.0)


def test_residuals_match_direct_subtraction(rng):
    s = rng.uniform(0.5, 200.0, 30)
    y = rng.normal(50.0, 10.0, 30)
    p = MMParams(80.0, 15.0)
    expected = y - p.vmax * (s / (p.km + s))
    assert np.array_equal(residuals(Dataset(s=s, y=y), p), expected)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(s=np.array([1.0, 2.0]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(s=np.array([1.0, np.nan]), y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(s=np.array([1.0, 2.0]), y=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Dataset(s=np.array([-1.0, 2.0]), y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(s=np.array([]), y=np.array([]))


def test_dataset_arrays_are_frozen_copies():
    src = np.array([1.0, 2.0, 3.0])
    data = Dataset(s=src, y=src * 2)
    src[0] = 99.0
    assert data.s[0] == 1.0
    with pytest.raises(ValueError):
        data.s[0] = 5.0


def test_clustered_dataset_requires_two_clusters():
    one = Dataset(s=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ClusteredDataset(clusters=(one,))


def test_clustered_dataset_from_labels_order_and_pooled():
    s = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = s * 2
    labels = ["b", "a", "b", "a", "b"]
    cd = ClusteredDataset.from_labels(s, y, labels)
    assert cd.cluster_ids == ("b", "a")
    assert cd.m == 2
    assert np.array_equal(cd.clusters[0].s, [1.0, 3.0, 5.0])
    assert np.array_equal(cd.clusters[1].s, [2.0, 4.0])
    pooled = cd.pooled()
    assert pooled.n == 5
    assert cd.n_total == 5


def test_clustered_dataset_rejects_duplicate_ids():
    a = Dataset(s=np.array([1.0]), y=np.array([1.0]))
    b = Dataset(s=np.array([2.0]), y=np.array([2.0]))
    with pytest.raises(ValueError):
        ClusteredDataset(clusters=(a, b), cluster_ids=("x", "x"))
