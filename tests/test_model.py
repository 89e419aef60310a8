"""Parameter validation, regime classification, and model-file round trips."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import vfbm
from vfbm import CovarianceModel, TimeGrid, validate_hurst, validate_model
from vfbm.errors import (
    DegenerateComponentError,
    NearSingularPairError,
    NotPositiveDefiniteError,
    OutOfRangeError,
    VfbmError,
)
from vfbm.model import HurstVector
from vfbm.special import CRITICAL_TOL
from vfbm.verify import random_mixing


def test_validate_hurst_accepts_scalar_case():
    hv = validate_hurst([0.5])
    assert hv.p == 1 and hv[0] == 0.5


def test_validate_hurst_accepts_exact_critical_pair():
    hv = validate_hurst([0.3, 0.7])
    assert hv.critical[0, 1]


def test_validate_hurst_rejects_out_of_range():
    with pytest.raises(OutOfRangeError) as exc:
        validate_hurst([0.2, 1.1])
    assert exc.value.index == 2
    with pytest.raises(OutOfRangeError):
        validate_hurst([0.0, 0.4])
    with pytest.raises(OutOfRangeError):
        validate_hurst([])
    with pytest.raises(OutOfRangeError) as exc:  # the type checks itself, whoever builds it
        HurstVector((1.7, 0.3))
    assert exc.value.index == 1


def test_validate_hurst_rejects_near_singular_band():
    with pytest.raises(NearSingularPairError) as exc:
        validate_hurst([0.3, 0.7 + 1e-10])
    assert (exc.value.i, exc.value.j) == (1, 2)
    with pytest.raises(NearSingularPairError):
        HurstVector((0.3, 0.7 + 1e-10))
    # just outside the band: legal, classified general
    hv = validate_hurst([0.3, 0.7 + 1e-7])
    assert not hv.critical[0, 1]


@pytest.mark.parametrize("pair,critical", [((0.3, 0.6), False), ((0.3, 0.7), True), ((0.5, 0.5), True)])
def test_critical_mask(pair, critical):
    mask = validate_hurst(list(pair)).critical
    assert mask[0, 1] == critical
    assert mask[1, 0] == critical  # symmetric
    assert not mask[0, 0] and not mask[1, 1]  # the diagonal is never a critical pair


@st.composite
def _exponents(draw):
    """1 to 5 exponents in (0, 1), with 1/2 and exactly critical pairs (1,2) drawn often."""
    h = draw(st.lists(st.sampled_from([0.5, 0.3, 0.7]) | st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=5))
    if len(h) > 1 and draw(st.booleans()):
        h[1] = 1.0 - h[0]
    return h


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_exponents())
def test_critical_mask_matches_the_pair_sums(h):
    try:
        hv = HurstVector(tuple(h))
    except NearSingularPairError:
        assume(False)
    a = np.array(h)
    expected = np.abs(a[:, None] + a[None, :] - 1.0) <= CRITICAL_TOL
    np.fill_diagonal(expected, False)
    assert hv.critical.dtype == bool and np.array_equal(hv.critical, expected)
    with pytest.raises(ValueError):  # read-only
        hv.critical[0, 0] = True
    # the model shares the exponents' mask instead of building its own
    assert CovarianceModel(hv).critical is hv.critical


def test_pair_coefficients_enforce_single_style():
    general, critical = validate_hurst([0.3, 0.6]), validate_hurst([0.3, 0.7])
    with pytest.raises(ValueError):  # a log weight f on a general pair
        CovarianceModel(general, f=[[0.0, 0.1], [-0.1, 0.0]])
    with pytest.raises(ValueError):  # c_12 != c_21 on a critical pair, which has one d_12
        CovarianceModel(critical, c=[[1.0, 0.1], [0.2, 1.0]])
    with pytest.raises(ValueError):  # f must be antisymmetric
        CovarianceModel(critical, f=[[0.0, 0.1], [0.1, 0.0]])
    with pytest.raises(ValueError):  # diagonal must have c = c' = 1
        CovarianceModel(general, c=[[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        CovarianceModel(general, sigma=[-1.0, 1.0])
    with pytest.raises(ValueError):
        CovarianceModel(general, sigma=[float("nan"), 1.0])
    with pytest.raises(ValueError):
        CovarianceModel(general, c=[[1.0, float("inf")], [0.0, 1.0]])
    with pytest.raises(ValueError):  # R_12 = (c_12 + c_21)/2 overflows
        CovarianceModel(general, c=[[1.0, 1e308], [1e308, 1.0]])
    with pytest.raises(ValueError):  # shape must match p
        CovarianceModel(general, sigma=[1.0, 1.0, 1.0])


def test_validate_model_identity_r_passes():
    hv = validate_hurst([0.3, 0.6])
    model = CovarianceModel(hv)  # omitted arrays default to independent unit-scale components
    report = validate_model(model)
    assert report.passed and report.positive_definite
    assert np.array_equal(model.r, np.eye(2))


def test_validate_model_rejects_large_coefficient_sum():
    hv = validate_hurst([0.3, 0.6])
    model = CovarianceModel(hv, c=[[1.0, 1.5], [1.0, 1.0]])
    report = validate_model(model)
    assert not report.passed
    # R_12 = (c_12 + c_21)/2 = 1.25, so lambda_min = 1 - 1.25 < 0
    assert report.lambda_min == pytest.approx(1.0 - 1.25, rel=1e-12)
    with pytest.raises(NotPositiveDefiniteError):
        vfbm.ensure_valid(model)


def test_models_from_random_mixing_always_validate():
    # construction guarantee: coefficients from a genuine representation give PD R
    rng = np.random.default_rng(2024)
    for k in range(100):
        p = 2 + k % 2
        m = random_mixing(rng, p, critical_pair=(k % 4 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        model = vfbm.coeffs_from_mixing(m)
        report = validate_model(model)
        assert report.passed, f"draw {k}: lambda_min={report.lambda_min}"
        off = model.r[~np.eye(p, dtype=bool)]
        assert np.all(np.abs(off) <= 1.0 + 1e-9)  # PD 2x2 minors bound |R_ij|


def test_time_grid_invariants():
    g = TimeGrid((-1.0, 0.0, 2.5))
    assert g.n == 3
    with pytest.raises(ValueError):
        TimeGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((float("inf"),))
    with pytest.raises(ValueError):
        TimeGrid(())


def test_model_pair_lookup_bounds():
    for i, j in ((1, 3), (0, 2), (2, 2)):
        with pytest.raises(ValueError):
            vfbm.model.parse_model(
                {"hurst": [0.3, 0.6], "coefficients": {"pairs": [{"i": i, "j": j, "c_ij": 0.1, "c_ji": 0.0}]}}
            )


def test_model_json_roundtrip(tmp_path):
    hv = validate_hurst([0.3, 0.7, 0.55])
    model = CovarianceModel(
        hv,
        sigma=[2.0, 1.0, 1.0],
        c=[[1.0, 0.3, 0.2], [0.3, 1.0, 0.0], [0.1, 0.0, 1.0]],
        f=[[0.0, -0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]],
    )
    path = tmp_path / "model.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vfbm.model.model_to_dict(model), fh)
    back = vfbm.load_model(path)
    assert back.hurst.h == model.hurst.h
    assert np.array_equal(back.sigma, model.sigma)
    assert back.c[0, 1] == 0.3 and back.f[0, 1] == -0.1
    assert back.c[0, 2] == 0.2
    assert np.allclose(back.r, model.r)


def test_load_model_converts_mixing_files(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(
        json.dumps({"hurst": [0.3, 0.6], "a_plus": [[1.0, 0.5], [0.0, 1.0]], "a_minus": [[0.0, 0.0], [0.0, 0.0]]})
    )
    model = vfbm.load_model(path)
    m = vfbm.MixingMatrices(
        a_plus=np.array([[1.0, 0.5], [0.0, 1.0]]), a_minus=np.zeros((2, 2)), hurst=validate_hurst([0.3, 0.6])
    )
    ref = vfbm.coeffs_from_mixing(m)
    assert model.c[0, 1] == pytest.approx(ref.c[0, 1], rel=1e-15)


def test_parse_model_rejects_a_degenerate_mixing_file():
    # a_minus defaults to 0, so component 1, with a zero a_plus row, has no variance
    with pytest.raises(DegenerateComponentError) as exc:
        vfbm.model.parse_model({"hurst": [0.3, 0.6], "a_plus": [[0, 0], [0, 1]]})
    assert exc.value.index == 1


def test_parse_model_rejects_wrong_coefficient_style():
    with pytest.raises(ValueError):
        vfbm.model.parse_model(
            {"hurst": [0.3, 0.7], "coefficients": {"sigma": [1, 1], "pairs": [{"i": 1, "j": 2, "c_ij": 0.1, "c_ji": 0.0}]}}
        )
    with pytest.raises(ValueError):
        vfbm.model.parse_model(
            {"hurst": [0.3, 0.6], "coefficients": {"sigma": [1, 1], "pairs": [{"i": 1, "j": 2, "d_ij": 0.1, "f_ij": 0.0}]}}
        )


def test_parse_model_maps_reversed_orientation():
    # {"i": 2, "j": 1} carries (c_21, c_12), and f_21 = -f_12 on a critical pair
    grid = TimeGrid((-0.5, 0.5, 1.5))

    def cov(hurst, entry):
        obj = {"hurst": hurst, "coefficients": {"sigma": [1.0, 2.0], "pairs": [entry]}}
        return vfbm.cov_matrix(vfbm.model.parse_model(obj), grid).entries

    a, b, d, g = 0.3, -0.1, 0.4, 0.15
    assert np.array_equal(
        cov([0.3, 0.6], {"i": 2, "j": 1, "c_ij": a, "c_ji": b}), cov([0.3, 0.6], {"i": 1, "j": 2, "c_ij": b, "c_ji": a})
    )
    assert np.array_equal(
        cov([0.3, 0.7], {"i": 2, "j": 1, "d_ij": d, "f_ij": g}), cov([0.3, 0.7], {"i": 1, "j": 2, "d_ij": d, "f_ij": -g})
    )


_finite = st.floats(-1e307, 1e307)  # so that (c_ij + c_ji)/2 cannot overflow


@st.composite
def _models(draw):
    """Valid models of 1 to 4 components, with a critical pair (1,2) half of the time."""
    p = draw(st.integers(1, 4))
    h = draw(st.lists(st.floats(0.05, 0.95), min_size=p, max_size=p))
    if p > 1 and draw(st.booleans()):
        h[1] = 1.0 - h[0]
    try:
        hurst = validate_hurst(h)
    except NearSingularPairError:
        hurst = validate_hurst([0.3, 0.7, 0.55, 0.6][:p])
    critical = hurst.critical
    sigma = draw(st.lists(st.floats(1e-300, 1e300), min_size=p, max_size=p))
    c = np.eye(p)
    f = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            x, y = draw(_finite), draw(_finite)
            if critical[i, j]:
                c[i, j] = c[j, i] = x
                f[i, j], f[j, i] = y, -y
            else:
                c[i, j], c[j, i] = x, y
    return CovarianceModel(hurst, sigma=sigma, c=c, f=f)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_models())
def test_model_dict_roundtrip_is_bit_exact(model):
    back = vfbm.model.parse_model(json.loads(json.dumps(vfbm.model.model_to_dict(model))))
    assert back.hurst == model.hurst
    for name in ("sigma", "c", "f"):
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_number = st.integers(-3, 3) | st.floats()  # floats include NaN and +-inf


def _or_junk(strategy):
    return strategy | _json


_pair_entry = st.fixed_dictionaries(
    {},
    optional={
        **{k: _or_junk(st.integers(-1, 4)) for k in ("i", "j")},
        **{k: _or_junk(_number) for k in ("c_ij", "c_ji", "d_ij", "f_ij")},
    },
)
_matrix = st.lists(st.lists(_number, min_size=2, max_size=2), min_size=2, max_size=2)
_model_dicts = st.fixed_dictionaries(
    {"hurst": _or_junk(st.lists(st.sampled_from([0.3, 0.7, 0.6, 0.5]) | st.floats(), min_size=1, max_size=3))},
    optional={
        "coefficients": _or_junk(
            st.fixed_dictionaries(
                {},
                optional={
                    "sigma": _or_junk(st.lists(_number, max_size=3)),
                    "pairs": _or_junk(st.lists(_or_junk(_pair_entry), max_size=3)),
                },
            )
        ),
        "a_plus": _or_junk(_matrix),
        "a_minus": _or_junk(_matrix),
    },
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_model_dicts | st.dictionaries(st.text(max_size=6), _json, max_size=3))
def test_parse_model_raises_only_reported_errors(obj):
    # cli.main turns exactly these types into one JSON line on stderr
    try:
        vfbm.model.parse_model(obj)
    except (VfbmError, ValueError, KeyError):
        pass


_KNOWN_KEYS = ["hurst", "coefficients", "a_plus", "a_minus", "sigma", "pairs", "i", "j", "c_ij", "c_ji", "d_ij", "f_ij"]


@st.composite
def _model_dict_with_a_key_renamed(draw):
    """A valid model dict, coefficient or mixing form, with one key at any level renamed."""
    if draw(st.booleans()):
        obj = vfbm.model.model_to_dict(draw(_models()))
    else:
        p = draw(st.integers(1, 3))
        matrix = st.lists(st.lists(st.floats(-10, 10), min_size=p, max_size=p), min_size=p, max_size=p)
        obj = {"hurst": [0.3, 0.6, 0.55][:p], "a_plus": draw(matrix)}
        if draw(st.booleans()):
            obj["a_minus"] = draw(matrix)  # optional: a mixing file without it is causal
    try:
        vfbm.model.parse_model(obj)  # valid before the rename
    except DegenerateComponentError:
        reject()  # e.g. an all-zero a_plus: no model to rename a key of
    levels = [obj]
    if "coefficients" in obj:
        levels += [obj["coefficients"], *obj["coefficients"]["pairs"]]
    level = draw(st.sampled_from(levels))
    old = draw(st.sampled_from(sorted(level)))
    new = draw((st.text(max_size=8) | st.sampled_from(_KNOWN_KEYS)).filter(lambda k: k not in level))
    level[new] = level.pop(old)
    return obj


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_model_dict_with_a_key_renamed())
def test_parse_model_rejects_any_renamed_key(obj):
    # no key may be silently dropped or defaulted: a misspelled key never yields a model
    with pytest.raises((VfbmError, ValueError, KeyError)):
        vfbm.model.parse_model(obj)
