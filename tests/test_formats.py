import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histlayer import binfile
from histlayer.autodiff import Parameter
from histlayer.checkpoint import (CheckpointFormatError, load_checkpoint, load_into,
                                  save_checkpoint)
from histlayer.data import (DatasetFormatError, default_spec, generate, read_dataset,
                            write_dataset)


def make_params(rng):
    mask = np.zeros((2, 3, 1, 1))
    mask[0, :, 0, 0] = 1.0
    a = Parameter(rng.standard_normal((2, 3, 1, 1)), mask, name="a")
    a.momentum_buf[...] = rng.standard_normal((2, 3, 1, 1))
    b = Parameter(rng.standard_normal((4, 1, 1, 1)), name="b.w")
    return {"a": a, "b.w": b}


def values(params):
    """The arrays a checkpoint saves: each parameter's values by name."""
    return {name: p.data for name, p in params.items()}


def test_roundtrip_bit_exact(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    back = load_checkpoint(path)
    assert set(back) == {"a", "b.w"}
    for name, p in params.items():
        np.testing.assert_array_equal(back[name], p.data)
        assert type(back[name]) is np.ndarray and back[name].dtype == np.float64


def test_save_is_byte_deterministic(tmp_path, rng):
    params = make_params(rng)
    p1, p2 = tmp_path / "c1.hprm", tmp_path / "c2.hprm"
    save_checkpoint(values(params), p1)
    save_checkpoint(values(params), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_checkpoint_emits_the_documented_bytes(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    # magic, version 2, count; per parameter its name, shape and values alone
    expected = b"HPRM" + struct.pack("<2I", 2, 2)
    for name in ("a", "b.w"):
        p = params[name]
        expected += (struct.pack("<I", len(name)) + name.encode("utf-8")
                     + struct.pack("<4I", *p.shape)
                     + struct.pack(f"<{p.data.size}d", *p.data.ravel().tolist()))
    assert path.read_bytes() == expected


def test_load_into_restores_in_place(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    fresh = make_params(np.random.default_rng(99))
    fresh["a"].lock_mask[...] = 1.0
    kept = {name: (p.lock_mask.copy(), p.momentum_buf.copy()) for name, p in fresh.items()}
    load_into(fresh, load_checkpoint(path))
    for name in params:
        np.testing.assert_array_equal(fresh[name].data, params[name].data)
        # the destination's own lock mask and momentum stay as they were
        np.testing.assert_array_equal(fresh[name].lock_mask, kept[name][0])
        np.testing.assert_array_equal(fresh[name].momentum_buf, kept[name][1])


def test_load_into_names_mismatched_parameters(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    other = {"a": params["a"], "c.w": params["b.w"]}
    with pytest.raises(CheckpointFormatError, match=r"missing \['c.w'\]"):
        load_into(other, load_checkpoint(path))


def test_load_into_names_shape_mismatch(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    other = make_params(rng)
    other["b.w"] = Parameter(np.zeros((5, 1, 1, 1)), name="b.w")
    before = {name: p.data.copy() for name, p in other.items()}
    with pytest.raises(CheckpointFormatError, match="b.w"):
        load_into(other, load_checkpoint(path))
    # names and shapes are checked before any value is copied
    for name, value in before.items():
        np.testing.assert_array_equal(other[name].data, value)


def test_truncated_checkpoint(tmp_path, rng):
    path = tmp_path / "c.hprm"
    save_checkpoint(values(make_params(rng)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "c.hprm"
    save_checkpoint(values(make_params(rng)), path)
    path.write_bytes(path.read_bytes() + bytes(70))
    with pytest.raises(CheckpointFormatError, match="70 unexpected bytes"):
        load_checkpoint(path)


def test_bad_magic_names_expected(tmp_path):
    path = tmp_path / "c.hprm"
    path.write_bytes(b"JUNK" + b"\0" * 32)
    with pytest.raises(CheckpointFormatError, match="HPRM"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path, rng):
    """Version 1, which also stored momentum and lock masks, is refused too."""
    path = tmp_path / "c.hprm"
    save_checkpoint(values(make_params(rng)), path)
    raw = bytearray(path.read_bytes())
    for version in (7, 1):
        raw[4] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError,
                           match=f"unsupported HPRM version {version}, expected 2"):
            load_checkpoint(path)


def test_empty_dict_roundtrip(tmp_path):
    path = tmp_path / "c.hprm"
    save_checkpoint({}, path)
    assert load_checkpoint(path) == {}


def test_huge_declared_shape_is_truncation(tmp_path):
    path = tmp_path / "c.hprm"
    path.write_bytes(b"HPRM" + struct.pack("<3I", 2, 1, 1) + b"a"
                     + struct.pack("<4I", *[2**32 - 1] * 4))
    with pytest.raises(CheckpointFormatError, match="truncated while reading a values"):
        load_checkpoint(path)


def test_duplicate_parameter_name_rejected(tmp_path, rng):
    path = tmp_path / "c.hprm"
    save_checkpoint({"b.w": make_params(rng)["b.w"].data}, path)
    raw = path.read_bytes()
    record = raw[12:]
    path.write_bytes(raw[:8] + struct.pack("<I", 2) + record + record)
    with pytest.raises(CheckpointFormatError, match="b.w appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected(tmp_path, rng, value):
    params = make_params(rng)
    params["a"].data[1, 2, 0, 0] = value
    path = tmp_path / "c.hprm"
    save_checkpoint(values(params), path)
    with pytest.raises(CheckpointFormatError, match="a holds non-finite values"):
        load_checkpoint(path)


# --------------------------------------------------------------------------
# a file that shrinks while it is read

FILLER = 4 * 8192   # bytes read before the shrink, more than a read buffer holds


@pytest.mark.parametrize("read", [
    lambda r: r.read(4, "the field"),
    lambda r: r.unpack("<I", "the field"),
    lambda r: r.blob("the field"),
    lambda r: r.array("<f8", (64,), "the field")], ids=["read", "unpack", "blob", "array"])
def test_file_that_shrinks_while_read_raises_truncation(tmp_path, read):
    path = tmp_path / "f.bin"
    binfile.write(path, b"TEST", 1, [np.zeros(FILLER // 8), binfile.blob(bytes(512)),
                                     np.zeros(64)])
    with pytest.raises(CheckpointFormatError, match="truncated while reading the field.*read 0"):
        with binfile.reader(path, b"TEST", 1, "test file", CheckpointFormatError) as r:
            r.array("<f8", (FILLER // 8,), "filler")
            os.truncate(path, 8 + FILLER)
            read(r)


# --------------------------------------------------------------------------
# hostile files: either a clean load or an error of the reader's format family

def _sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_dataset(generate(default_spec(), 2, 3, 3, seed=1), root / "d.hctx")
    save_checkpoint(values(make_params(np.random.default_rng(0))), root / "c.hprm")
    return root


def _flip(raw: bytes, bits: list[int]) -> bytes:
    out = bytearray(raw)
    for b in bits:
        out[(b // 8) % len(out)] ^= 1 << (b % 8)
    return bytes(out)


def _mutations(raw: bytes):
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)
          .map(lambda bits: _flip(raw, bits)),
        st.binary(max_size=256).map(lambda tail: raw[:4] + tail),
        st.binary(max_size=64))


@pytest.mark.parametrize("name,reader,family", [
    ("d.hctx", read_dataset, DatasetFormatError),
    ("c.hprm", load_checkpoint, CheckpointFormatError)])
def test_mangled_file_raises_only_the_format_family(tmp_path_factory, name, reader, family):
    root = _sample_files(tmp_path_factory)
    raw = (root / name).read_bytes()
    target = root / ("mangled." + name)

    @settings(max_examples=300, deadline=None)
    @given(_mutations(raw))
    def check(data):
        target.write_bytes(data)
        try:
            reader(target)
        except family:
            pass

    check()
