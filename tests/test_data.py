import struct

import numpy as np
import pytest
from scipy import stats

from histlayer.cli import main
from histlayer.data import (MC_CHUNK, ContextDataset, DatasetFormatError, SceneSpec,
                            _bayes_predict, default_spec, generate, local_bayes_ceiling,
                            read_dataset, write_dataset)


def test_default_spec_is_valid():
    spec = default_spec()
    spec.validate()
    assert spec.S == 2 and spec.K == 6 and spec.D == 8
    np.testing.assert_allclose(spec.class_priors.sum(axis=1), 1.0)
    a, b = spec.ambiguous_pairs[0]
    np.testing.assert_array_equal(spec.class_means[a], spec.class_means[b])


def test_spec_rejects_bad_priors():
    spec = default_spec()
    spec.class_priors[0, 0] += 0.1
    with pytest.raises(ValueError, match="sum to 1"):
        spec.validate()


def test_spec_rejects_overlapping_ambiguous_support():
    spec = default_spec()
    spec.class_priors[0, 5] = spec.class_priors[0, 4] / 2
    spec.class_priors[0, 4] /= 2
    with pytest.raises(ValueError, match="disjoint"):
        spec.validate()


def test_spec_rejects_mismatched_ambiguous_means():
    spec = default_spec()
    spec.class_means[5, 0] += 1e-9
    with pytest.raises(ValueError, match="share class means"):
        spec.validate()


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_noise_sigma(sigma):
    spec = default_spec()
    spec.noise_sigma = sigma
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        spec.validate()


def test_dataset_with_256_classes_is_a_format_error(tmp_path, capsys):
    K, D = 256, 2
    spec = SceneSpec(S=1, K=K, D=D, class_priors=np.full((1, K), 1.0 / K),
                     class_means=np.zeros((K, D)), noise_sigma=0.3)
    path = tmp_path / "d.hctx"
    write_dataset(ContextDataset(np.zeros((2, D, 2, 2)), np.zeros((2, 2, 2), np.uint8),
                                 np.zeros(2, np.uint8), spec, 0), path)
    with pytest.raises(DatasetFormatError, match="K must be at most 255"):
        read_dataset(path)
    assert main(["eval", str(tmp_path / "m.hprm"), str(path),
                 "--out", str(tmp_path / "out")]) == 3
    assert "K must be at most 255" in capsys.readouterr().err


def test_generate_deterministic():
    spec = default_spec()
    a = generate(spec, 6, 5, 5, seed=42)
    b = generate(spec, 6, 5, 5, seed=42)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.scene_ids, b.scene_ids)
    c = generate(spec, 6, 5, 5, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_generate_zero_noise_gives_exact_means():
    spec = default_spec(noise_sigma=0.0)
    ds = generate(spec, 4, 6, 6, seed=0)
    for n in range(4):
        for i in range(6):
            for j in range(6):
                np.testing.assert_array_equal(ds.features[n, :, i, j],
                                              spec.class_means[ds.labels[n, i, j]])


def test_labels_respect_scene_support():
    spec = default_spec()
    ds = generate(spec, 50, 8, 8, seed=3)
    for n in range(50):
        present = np.unique(ds.labels[n])
        support = np.flatnonzero(spec.class_priors[ds.scene_ids[n]] > 0)
        assert set(present) <= set(support)


def test_label_marginals_within_multinomial_bounds():
    spec = default_spec()
    H = W = 16
    ds = generate(spec, 500, H, W, seed=7)   # 128k pixels
    for s in range(spec.S):
        mask = ds.scene_ids == s
        pixels = ds.labels[mask].ravel()
        n = pixels.size
        counts = np.bincount(pixels, minlength=spec.K)
        for k in range(spec.K):
            p = spec.class_priors[s, k]
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[k] - n * p) <= max(3 * sigma, 1.0)


def test_splits_share_label_distribution_chi_square():
    spec = default_spec()
    a = generate(spec, 120, 8, 8, seed=11)
    b = generate(spec, 120, 8, 8, seed=12)
    ca = np.bincount(a.labels.ravel(), minlength=spec.K)
    cb = np.bincount(b.labels.ravel(), minlength=spec.K)
    _, pvalue, _, _ = stats.chi2_contingency(np.stack([ca, cb]))
    assert pvalue > 1e-4


# --------------------------------------------------------------------------
# local Bayes ceiling

def test_ceiling_separable_case_reaches_one():
    means = np.array([[1.0, 0.0], [0.0, 1.0]])
    spec = SceneSpec(S=1, K=2, D=2, class_priors=np.array([[0.5, 0.5]]),
                     class_means=means, noise_sigma=1e-4)
    assert local_bayes_ceiling(spec, 20000, seed=0) > 0.999


def test_ceiling_matches_one_minus_half_occupancy():
    p = 0.3
    spec = default_spec(noise_sigma=0.02, ambiguous_occupancy=p)
    ceiling = local_bayes_ceiling(spec, 100000, seed=1)
    assert ceiling == pytest.approx(1.0 - p / 2, abs=0.02)


def test_ceiling_invariant_to_class_relabeling():
    spec = default_spec()
    perm = np.array([3, 2, 5, 4, 1, 0])
    inv = np.argsort(perm)
    relabeled = SceneSpec(S=2, K=6, D=8,
                          class_priors=spec.class_priors[:, inv],
                          class_means=spec.class_means[inv],
                          noise_sigma=spec.noise_sigma,
                          ambiguous_pairs=[(int(perm[a]), int(perm[b]))
                                           for a, b in spec.ambiguous_pairs])
    relabeled.validate()
    c1 = local_bayes_ceiling(spec, 150000, seed=5)
    c2 = local_bayes_ceiling(relabeled, 150000, seed=6)
    assert c1 == pytest.approx(c2, abs=0.01)


def whole_array_ceiling(spec, n_mc, seed):
    """The ceiling from all n_mc draws at once, with an (n_mc, K, D) distance
    array: the reference for `local_bayes_ceiling`'s row chunks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scenes = rng.integers(spec.S, size=n_mc)
    u = rng.random(n_mc)
    cdf = np.cumsum(spec.class_priors, axis=1)
    labels = (u[:, None] > cdf[scenes]).sum(axis=1)
    x = spec.class_means[labels] + spec.noise_sigma * rng.standard_normal((n_mc, spec.D))
    return float(np.mean(_bayes_predict(spec, x) == labels))


@pytest.mark.parametrize("n_mc", [1, 7, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 3])
@pytest.mark.parametrize("spec", [default_spec(), default_spec(noise_sigma=0.0),
                                  default_spec(K=7, D=9, noise_sigma=1.3)],
                         ids=["default", "sigma0", "K7-D9"])
def test_ceiling_matches_the_whole_array_pass_bit_for_bit(spec, n_mc):
    for seed in (0, 11):
        got, want = local_bayes_ceiling(spec, n_mc, seed), whole_array_ceiling(spec, n_mc, seed)
        assert repr(got) == repr(want)


def test_ceiling_rejects_bad_mc_count():
    with pytest.raises(ValueError):
        local_bayes_ceiling(default_spec(), 0, seed=0)


# --------------------------------------------------------------------------
# HCTX file format

def test_roundtrip_bit_exact(tmp_path):
    ds = generate(default_spec(), 5, 4, 4, seed=9)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.scene_ids, ds.scene_ids)
    assert back.spec.to_json() == ds.spec.to_json()
    assert back.seed == ds.seed


def test_write_dataset_emits_the_documented_bytes(tmp_path):
    n, d, h, w = 2, 8, 2, 3
    features = np.arange(n * d * h * w, dtype=np.float64).reshape(n, d, h, w) / 7 - 3
    labels = (np.arange(n * h * w) % 6).astype(np.uint8).reshape(n, h, w)
    scene_ids = np.array([1, 0], dtype=np.uint8)
    spec = default_spec()
    seed = 2**64 - 5  # above 2**63, so the sign bit of the u64 is set
    path = tmp_path / "d.hctx"
    write_dataset(ContextDataset(features, labels, scene_ids, spec, seed), path)
    blob = spec.to_json().encode("utf-8")
    expected = (b"HCTX" + struct.pack("<7I", 1, n, d, h, w, spec.K, spec.S)
                + struct.pack(f"<{features.size}d", *features.ravel().tolist())
                + bytes(labels.ravel().tolist()) + bytes(scene_ids.tolist())
                + struct.pack("<I", len(blob)) + blob + struct.pack("<Q", seed))
    assert path.read_bytes() == expected
    assert read_dataset(path).seed == seed


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "d.hctx"
    write_dataset(generate(default_spec(), 3, 4, 4, seed=9), path)
    path.write_bytes(path.read_bytes() + bytes(70))
    with pytest.raises(DatasetFormatError, match="70 unexpected bytes"):
        read_dataset(path)


def test_truncated_file_reports_truncation(tmp_path):
    ds = generate(default_spec(), 3, 4, 4, seed=9)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_dataset(path)


def test_foreign_magic_names_expected_magic(tmp_path):
    path = tmp_path / "d.hctx"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(DatasetFormatError, match="HCTX"):
        read_dataset(path)


def test_version_mismatch_distinct_error(tmp_path):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="unsupported HCTX version 99"):
        read_dataset(path)


def test_huge_declared_image_count_is_truncation_not_overflow(tmp_path):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError, match="truncated while reading features"):
        read_dataset(path)


@pytest.mark.parametrize("field,value", [("labels", 6), ("labels", 255), ("scene_ids", 2)])
def test_out_of_range_labels_and_scene_ids_rejected(tmp_path, field, value):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    getattr(ds, field).flat[0] = value
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    with pytest.raises(DatasetFormatError, match="labels must be < K=6"):
        read_dataset(path)


def test_malformed_spec_blob_is_a_format_error(tmp_path):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    raw = path.read_bytes()
    blob = ds.spec.to_json().encode()
    path.write_bytes(raw.replace(blob, b"\xff" + blob[1:]))
    with pytest.raises(DatasetFormatError, match="spec blob"):
        read_dataset(path)


_SPEC_TEXT = default_spec().to_json()


@pytest.mark.parametrize("blob", [
    b"[" * 100_000,
    _SPEC_TEXT.replace('"noise_sigma": 0.3', '"noise_sigma": NaN').encode(),
    _SPEC_TEXT.replace('"noise_sigma": 0.3', '"noise_sigma": Infinity').encode()],
    ids=["deep_nesting", "nan_sigma", "inf_sigma"])
def test_hostile_spec_blob_is_a_format_error(tmp_path, blob):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    old = ds.spec.to_json().encode()
    assert blob != old
    path.write_bytes(path.read_bytes().replace(struct.pack("<I", len(old)) + old,
                                               struct.pack("<I", len(blob)) + blob))
    with pytest.raises(DatasetFormatError, match="spec blob"):
        read_dataset(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_rejected(tmp_path, value):
    ds = generate(default_spec(), 2, 3, 3, seed=1)
    ds.features[1, 7, 2, 0] = value
    path = tmp_path / "d.hctx"
    write_dataset(ds, path)
    with pytest.raises(DatasetFormatError, match="non-finite"):
        read_dataset(path)


@pytest.mark.parametrize("value", [float("inf"), -float("inf")])
def test_generate_rejects_non_finite_features(value):
    spec = default_spec()
    spec.class_means[:, 3] = value   # every class, so ambiguous pairs stay equal
    with pytest.raises(DatasetFormatError, match="non-finite"):
        generate(spec, 2, 3, 3, seed=1)
