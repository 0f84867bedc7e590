import json
import pathlib

import pytest

from stargroup import serialize
from stargroup.core import ShapeError, same_tables
from stargroup.groupoid import esn_groupoid, groupoid_equal
from stargroup.ssets import canonical_action

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_semigroup_roundtrip(tmp_path, i2):
    p = tmp_path / "i2.json"
    serialize.save_semigroup(i2, p)
    back = serialize.load_semigroup(p)
    assert same_tables(back, i2) and back.name == i2.name
    # bit-exact: saving the loaded value reproduces the file
    q = tmp_path / "again.json"
    serialize.save_semigroup(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_fixture_files_load():
    for name in ("t1", "c2", "sl2", "sl3", "lz2", "i2"):
        X = serialize.load_semigroup(FIXTURES / f"{name}.json")
        assert X.order >= 1


def test_fixture_files_are_canonical():
    for p in FIXTURES.glob("*.json"):
        obj = serialize.load_any(p)
        if hasattr(obj, "mul") and not hasattr(obj, "map"):
            assert serialize.dumps(serialize.semigroup_to_dict(obj)) == p.read_text()


def test_morphism_roundtrip(tmp_path, const_c2_t1):
    p = tmp_path / "m.json"
    serialize.save_morphism(const_c2_t1, p)
    back = serialize.load_morphism(p)
    assert back.map == const_c2_t1.map
    assert same_tables(back.source, const_c2_t1.source)


def test_morphism_file_refs():
    f = serialize.load_morphism(FIXTURES / "const_c2_t1.json")
    assert f.map == (0, 0)
    assert f.source.order == 2 and f.target.order == 1


def test_morphism_revalidates(tmp_path, sl2):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "source": serialize.semigroup_to_dict(sl2),
        "target": serialize.semigroup_to_dict(sl2),
        "map": [0, 5],
    }))
    with pytest.raises(ShapeError):
        serialize.load_morphism(p)


def test_presheaf_roundtrip(tmp_path, p21):
    p = tmp_path / "p.json"
    serialize.save_presheaf(p21, p)
    back = serialize.load_presheaf(p)
    assert back == p21
    q = tmp_path / "q.json"
    serialize.save_presheaf(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_groupoid_roundtrip(tmp_path, i2):
    G = esn_groupoid(i2)
    p = tmp_path / "g.json"
    serialize.save_groupoid(G, p)
    back = serialize.load_groupoid(p)
    assert groupoid_equal(back, G)
    q = tmp_path / "h.json"
    serialize.save_groupoid(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_sset_roundtrip(tmp_path, id_sl2):
    A = canonical_action(id_sl2)
    p = tmp_path / "a.json"
    serialize.save_sset(A, p)
    back = serialize.load_sset(p)
    assert back.action == A.action and back.smap == A.smap


def test_load_any(tmp_path, p21, i2):
    serialize.save_semigroup(i2, tmp_path / "x.json")
    serialize.save_presheaf(p21, tmp_path / "p.json")
    assert serialize.load_any(tmp_path / "x.json").order == 7
    assert serialize.load_any(tmp_path / "p.json").fiber(1) == ("u", "v")


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deeply"])
def test_load_any_refuses_an_unreadable_file_with_input_error(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)
    with pytest.raises(serialize.InputError):
        serialize.load_any(path)


def test_fhat_dump(id_sl2):
    from stargroup.modalg import fhat
    d = serialize.fhat_to_dict(fhat(id_sl2), include_product=True)
    assert len(d["carrier"]) == 4
    assert "product" in d
