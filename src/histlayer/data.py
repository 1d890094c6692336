"""Seeded synthetic scenes where global context disambiguates local features.

Each image belongs to a scene type. Pixels draw a class label from the
scene's prior and a Gaussian feature around the class mean. One pair of
classes shares a mean exactly but never co-occurs in a scene, so a
pixel-local classifier cannot tell them apart while the scene's class
frequencies can.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import binfile

HCTX_MAGIC = b"HCTX"
HCTX_VERSION = 1
_U64_MASK = (1 << 64) - 1


class DatasetFormatError(ValueError):
    """Bad magic, unsupported version, truncated or malformed dataset file."""


def check_class_count(K: int) -> None:
    if K > 255:  # labels are stored as u8; the bound is one class below what u8 holds
        raise ValueError(f"K must be at most 255, got {K}")


@dataclass
class SceneSpec:
    S: int
    K: int
    D: int
    class_priors: np.ndarray          # (S, K), rows sum to 1
    class_means: np.ndarray           # (K, D)
    noise_sigma: float
    ambiguous_pairs: list = field(default_factory=list)

    def __post_init__(self):
        self.class_priors = np.asarray(self.class_priors, dtype=np.float64)
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        self.ambiguous_pairs = [tuple(p) for p in self.ambiguous_pairs]

    def validate(self) -> None:
        check_class_count(self.K)
        if self.class_priors.shape != (self.S, self.K):
            raise ValueError(f"class_priors must be (S,K)=({self.S},{self.K}), "
                             f"got {self.class_priors.shape}")
        if self.class_means.shape != (self.K, self.D):
            raise ValueError(f"class_means must be (K,D)=({self.K},{self.D}), "
                             f"got {self.class_means.shape}")
        if np.any(self.class_priors < 0):
            raise ValueError("class priors must be nonnegative")
        sums = self.class_priors.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-12):
            raise ValueError(f"each prior row must sum to 1, got {sums}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and nonnegative, "
                             f"got {self.noise_sigma}")
        for a, b in self.ambiguous_pairs:
            if not np.array_equal(self.class_means[a], self.class_means[b]):
                raise ValueError(f"ambiguous pair ({a},{b}) must share class means exactly")
            support_a = self.class_priors[:, a] > 0
            support_b = self.class_priors[:, b] > 0
            if np.any(support_a & support_b):
                raise ValueError(f"ambiguous pair ({a},{b}) must have disjoint scene support")

    def to_json(self) -> str:
        return json.dumps({
            "S": self.S, "K": self.K, "D": self.D,
            "class_priors": self.class_priors.tolist(),
            "class_means": self.class_means.tolist(),
            "noise_sigma": self.noise_sigma,
            "ambiguous_pairs": [list(p) for p in self.ambiguous_pairs],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        d = json.loads(text)
        return cls(S=d["S"], K=d["K"], D=d["D"],
                   class_priors=np.array(d["class_priors"]),
                   class_means=np.array(d["class_means"]),
                   noise_sigma=d["noise_sigma"],
                   ambiguous_pairs=[tuple(p) for p in d["ambiguous_pairs"]])


def default_spec(K: int = 6, D: int = 8, noise_sigma: float = 0.3,
                 ambiguous_occupancy: float = 0.3) -> SceneSpec:
    """Two scene types; the last two classes are an ambiguous pair.

    Scene 0 is dominated by class 0 and contains only member K-2 of the
    pair; scene 1 is dominated by class 1 and contains only member K-1.
    The dominant-class imbalance is what makes the scene identifiable from
    the image-level class histogram.
    """
    if K < 5:
        raise ValueError(f"default spec needs K >= 5, got {K}")
    if D < K - 1:
        raise ValueError(f"default spec needs D >= K-1 distinct means, got D={D}")
    p = ambiguous_occupancy
    filler = (1.0 - p - 0.5) / max(K - 4, 1)
    priors0 = np.zeros(K)
    priors1 = np.zeros(K)
    priors0[0], priors0[1] = 0.45, 0.05
    priors1[0], priors1[1] = 0.05, 0.45
    priors0[2:K - 2] = filler
    priors1[2:K - 2] = filler
    priors0[K - 2] = p
    priors1[K - 1] = p
    means = np.zeros((K, D))
    for k in range(K - 1):
        means[k, k] = 1.0
    means[K - 1] = means[K - 2]
    spec = SceneSpec(S=2, K=K, D=D,
                     class_priors=np.stack([priors0, priors1]),
                     class_means=means, noise_sigma=noise_sigma,
                     ambiguous_pairs=[(K - 2, K - 1)])
    spec.validate()
    return spec


@dataclass
class ContextDataset:
    features: np.ndarray   # (N, D, H, W) float64
    labels: np.ndarray     # (N, H, W) uint8
    scene_ids: np.ndarray  # (N,) uint8
    spec: SceneSpec
    seed: int

    def __len__(self) -> int:
        return self.features.shape[0]


def generate(spec: SceneSpec, N: int, H: int, W: int, seed: int) -> ContextDataset:
    """Draw N scenes of H x W pixels; a pure function of (spec, N, H, W, seed)."""
    spec.validate()
    if N < 1 or H < 1 or W < 1:
        raise ValueError(f"dataset dimensions must be positive, got N={N} H={H} W={W}")
    features = np.empty((N, spec.D, H, W))
    labels = np.empty((N, H, W), dtype=np.uint8)
    scene_ids = np.empty(N, dtype=np.uint8)
    for i in range(N):
        rng = np.random.Generator(np.random.PCG64((seed ^ i) & _U64_MASK))
        s = int(rng.integers(spec.S))
        lab = rng.choice(spec.K, size=H * W, p=spec.class_priors[s]).reshape(H, W)
        feat = spec.class_means[lab]                     # (H, W, D)
        feat = feat + spec.noise_sigma * rng.standard_normal((H, W, spec.D))
        features[i] = feat.transpose(2, 0, 1)
        labels[i] = lab
        scene_ids[i] = s
    # min and max propagate NaN and reach any inf, with no features-sized mask
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        raise DatasetFormatError("features hold non-finite values")
    return ContextDataset(features, labels, scene_ids, spec, seed)


def _bayes_predict(spec: SceneSpec, x: np.ndarray) -> np.ndarray:
    """Scene-marginal Bayes prediction for a batch of pixel features (M, D)."""
    marg = spec.class_priors.mean(axis=0)                # uniform scene prior
    diff = x[:, None, :] - spec.class_means[None]        # (M, K, D)
    dist2 = np.einsum("mkd,mkd->mk", diff, diff)
    if spec.noise_sigma > 0:
        with np.errstate(divide="ignore"):
            score = np.log(marg)[None] - dist2 / (2.0 * spec.noise_sigma ** 2)
    else:
        exact = dist2 <= dist2.min(axis=1, keepdims=True)
        score = np.where(exact, marg[None], -1.0)
    return np.argmax(score, axis=1)


def local_bayes_ceiling(spec: SceneSpec, n_mc: int, seed: int) -> float:
    """Monte-Carlo best per-pixel accuracy from a single pixel's feature.

    Marginalizes over scenes; the gap between 1 and this ceiling is the
    headroom that only global context can recover.
    """
    spec.validate()
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    rng = np.random.Generator(np.random.PCG64(seed))
    scenes = rng.integers(spec.S, size=n_mc)
    u = rng.random(n_mc)
    cdf = np.cumsum(spec.class_priors, axis=1)
    labels = (u[:, None] > cdf[scenes]).sum(axis=1)
    x = spec.class_means[labels] + spec.noise_sigma * rng.standard_normal((n_mc, spec.D))
    pred = _bayes_predict(spec, x)
    return float(np.mean(pred == labels))


# --------------------------------------------------------------------------
# HCTX files, fields in `binfile`'s container: N, D, H, W, K, S u32; features
# float64 (N,D,H,W); labels u8 (N,H,W); scene ids u8 (N); spec JSON blob; seed u64.

def write_dataset(dataset: ContextDataset, path) -> None:
    binfile.write(path, HCTX_MAGIC, HCTX_VERSION, [
        struct.pack("<6I", *dataset.features.shape, dataset.spec.K, dataset.spec.S),
        np.ascontiguousarray(dataset.features, dtype="<f8"),
        dataset.labels.astype(np.uint8).tobytes(),
        dataset.scene_ids.astype(np.uint8).tobytes(),
        binfile.blob(dataset.spec.to_json().encode("utf-8")),
        struct.pack("<Q", dataset.seed & _U64_MASK)])


def read_dataset(path) -> ContextDataset:
    with binfile.reader(path, HCTX_MAGIC, HCTX_VERSION, "dataset", DatasetFormatError) as f:
        n, d, h, w, k, s = f.unpack("<6I", "header")
        if min(n, d, h, w) < 1:
            raise DatasetFormatError(f"header declares an empty dataset: "
                                     f"N={n} D={d} H={h} W={w}")
        features = f.array("<f8", (n, d, h, w), "features")
        labels = f.array(np.uint8, (n, h, w), "labels")
        scene_ids = f.array(np.uint8, (n,), "scene ids")
        blob = f.blob("spec blob")
        (seed,) = f.unpack("<Q", "seed")
    try:
        spec = SceneSpec.from_json(blob.decode("utf-8"))
        spec.validate()
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as e:
        raise DatasetFormatError(f"malformed spec blob: {e}") from e
    if (spec.K, spec.S) != (k, s):
        raise DatasetFormatError(f"header (K,S)=({k},{s}) disagrees with spec blob "
                                 f"({spec.K},{spec.S})")
    if labels.max() >= k or scene_ids.max() >= s:
        raise DatasetFormatError(f"labels must be < K={k} and scene ids < S={s}, got "
                                 f"{labels.max()} and {scene_ids.max()}")
    # min and max propagate NaN and reach any inf, with no features-sized mask
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        raise DatasetFormatError("features hold non-finite values")
    return ContextDataset(features, labels, scene_ids, spec, seed)
