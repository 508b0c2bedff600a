"""The algebra JSON layer: pinned bytes, from the library and from the CLI,
the text writer and the schema-2 reader against their references, ints
beyond int64, and the lazily built ``sc`` map."""

import copy
import hashlib
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    build_assoc_from_forms,
    build_lie_from_forms,
    matrix_algebra,
    sample_form_tuple,
    unitalize,
)
from commdim.construct import matrix_commutative_subalgebra
from commdim import algebra
from commdim.algebra import TEXT_READER_MIN_CHARS, _checked_sc, _read_text
from commdim.cli import main
from commdim.gf import SMALL_MATRIX_CELLS
from oracles import reference_algebra_json, reference_checked_sc

GOLDEN = pathlib.Path(__file__).parent / "golden"
F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def _pinned_algebra(name: str) -> StructureConstantAlgebra:
    if name == "lie-d7":
        return build_lie_from_forms(sample_form_tuple(4, 3, "alternating", F3, 0))
    if name == "pipeline-d12":
        return StructureConstantAlgebra.from_json(json.loads((GOLDEN / "alg_lie_n7_t5_p2_seed1000_v1.json").read_text()))
    if name in ("lie-d24", "lie-d48"):
        n, t = (18, 6) if name == "lie-d24" else (40, 8)
        return build_lie_from_forms(sample_form_tuple(n, t, "alternating", F2, 1))
    if name in ("assoc-d24", "assoc-d48"):
        n, t = (18, 6) if name == "assoc-d24" else (40, 8)
        return build_assoc_from_forms(sample_form_tuple(n, t, "general", F2, 1))
    if name == "unital-d49":
        return unitalize(_pinned_algebra("assoc-d48"))
    if name in ("M3", "M8"):
        return matrix_algebra(3, F3) if name == "M3" else matrix_algebra(8, F2)
    # keys out of order, an explicit reverse key (1, 0) and a stored zero product (0, 2)
    sc = {(2, 3): [1, 0, 0, 4], (0, 1): [0, 0, 3, 0], (1, 0): [0, 0, 1, 1], (0, 2): [0, 0, 0, 0]}
    return StructureConstantAlgebra("lie", F5, 4, sc)


# sha256 of the CLI's encoding of each algebra's document, as written by
# commdim 0.3.0 before the writer ran on numpy arrays
PINNED = {
    "lie-d7": "5202627e5c366a9c6ca03dadd0b3128c4a87dfbc81f79f2a0bd876867849c533",
    "pipeline-d12": "26782c8cbc5e3613dd7d49c4cc247807751c5b3625eefa4f3ed6a77860e49c98",
    "lie-d24": "80c1f8f87beacf5c533383d8f371c1655190b079bdc6a6ef229c4dcc0e46ccf3",
    "assoc-d24": "afe7c043f8e7073e3389a6e40ec2f4fcc277a991e4a53627e31f650661f06ab9",
    "lie-d48": "bde078018f7e44f1af72f237f5b931beca36c74e9b740fef4bd4c436251a6f1c",
    "assoc-d48": "82c20cfea0ee84f89273005a65ae4f915c882957293d90191491be2c3069e617",
    "unital-d49": "097d80db6daa3dcb1e6ba21f28dc76f2c70df7ffa0e063ed00e1a447ef636cbc",
    "M3": "774ac0b0b370a25ffd64299eaa0fdc5d80db08b5d48bd66d847f6a10dd0fc8e3",
    "M8": "a2531460af3e9fc51b9aa4f4eeb1e29742c367b7c8a5a2917401944595a40317",
    "lie-overrides": "0af350046dded67d4a8e397127b731d6226a041fb1bcd650b7f9416a32fe6637",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(a: StructureConstantAlgebra) -> str:
    text = a.json_text()
    # to_json parses that text, and encoding the dict gives it back
    assert json.dumps(a.to_json()) == text
    return _sha(text)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_documents_keep_their_bytes(name):
    a = _pinned_algebra(name)
    assert _digest(a) == PINNED[name]
    assert a.json_text() == json.dumps(reference_algebra_json(a))
    # read back from its own text, the algebra writes the same bytes and table
    back = StructureConstantAlgebra.from_json(json.loads(a.json_text()))
    assert _digest(back) == PINNED[name]
    assert np.array_equal(back.table(), a.table())


def _cli_text(capsys, *argv) -> str:
    """The one line a CLI call printed, and wrote to its -o file if it has one."""
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if "-o" in argv:
        with open(argv[argv.index("-o") + 1]) as fh:
            assert fh.read() == out
    assert out.endswith("\n") and out.count("\n") == 1
    return out[:-1]


@pytest.mark.parametrize("d", [24, 48])
def test_the_cli_writes_the_pinned_bytes(d, tmp_path, capsys):
    n, t = (18, 6) if d == 24 else (40, 8)
    paths = {}
    for kind, forms_kind in (("lie", "alternating"), ("assoc", "general")):
        forms = tmp_path / f"{forms_kind}.json"
        forms.write_text(json.dumps(sample_form_tuple(n, t, forms_kind, F2, 1).to_json()))
        paths[kind] = str(tmp_path / f"{kind}.json")
        text = _cli_text(capsys, "construct", "--from", str(forms), "--kind", kind, "-o", paths[kind])
        assert _sha(text) == PINNED[f"{kind}-d{d}"]
    unit = _cli_text(capsys, "unitalize", "--alg", paths["assoc"], "-o", str(tmp_path / "unit.json"))
    if d == 48:
        assert _sha(unit) == PINNED["unital-d49"]
    assert unit == json.dumps(reference_algebra_json(unitalize(_pinned_algebra(f"assoc-d{d}"))))


@pytest.mark.parametrize("r, p", [(3, 3), (8, 2)])
@pytest.mark.parametrize("construction", ["diagonal", "corner"])
def test_matrix_comm_writes_the_pinned_ambient(r, p, construction, capsys):
    text = _cli_text(capsys, "matrix-comm", "--r", str(r), "--p", str(p), "--construction", construction)
    head, tail = '{"ambient": ', ', "sub": {'
    assert text.startswith(head)
    assert _sha(text[len(head) : text.index(tail)]) == PINNED[f"M{r}"]
    # the whole document as the CLI encoded it when the ambient was a dict
    ambient, sub = matrix_commutative_subalgebra(r, PrimeField(p), construction)
    doc = {"ambient": reference_algebra_json(ambient), "sub": sub.to_json(), "sub_dim": sub.dim}
    assert text == json.dumps(doc)


# ---------------------------------------------------------------- the writer against its reference

# label characters that need escaping, or lie outside ASCII
_LABEL_CHARS = st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", "∑", "\u2028", "😀", "a", " ", "/"])


@st.composite
def algebras_to_write(draw, primes=(2, 3, 8191)):
    """An algebra of dim 0 to 12 over GF(p) for p in primes, its keys
    stored in drawn order, with zero products stored as often as not, at
    times an explicit Lie reverse key, and labels that need escaping; an
    assoc one is at times unitalized, which stores its keys out of order."""
    p = draw(st.sampled_from(primes))
    d = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["lie", "assoc"]))
    cells = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)) if d else st.nothing()
    keys = draw(st.lists(cells, unique=True, max_size=min(d * d, 40)))
    if kind == "lie" and keys and draw(st.booleans()):
        i, j = keys[0]
        if (j, i) not in keys:
            keys.insert(draw(st.integers(0, len(keys))), (j, i))
    value = st.just(0) | st.integers(1, p - 1)
    sc = {key: draw(st.lists(value, min_size=d, max_size=d)) for key in keys}
    if keys and draw(st.booleans()):
        sc[keys[draw(st.integers(0, len(keys) - 1))]] = [0] * d
    labels = draw(st.none() | st.lists(st.text(_LABEL_CHARS | st.characters(), max_size=4), min_size=d, max_size=d))
    a = StructureConstantAlgebra(kind, PrimeField(p), d, sc, labels)
    return unitalize(a) if kind == "assoc" and draw(st.booleans()) else a


@settings(derandomize=True, max_examples=400, deadline=None)
@given(algebras_to_write())
def test_json_text_matches_its_reference(a):
    text = a.json_text()
    assert text == json.dumps(reference_algebra_json(a))
    assert a.to_json() == reference_algebra_json(a)
    back = StructureConstantAlgebra.from_json(json.loads(text))
    assert back.json_text() == text and back.labels == a.labels


# ---------------------------------------------------------------- the reader against its reference


def _outcome(reader, entries, p, dim):
    """(stored keys as tuples, rows) of a reader, or the text of its ValueError."""
    try:
        keys, rows = reader(copy.deepcopy(entries), p, dim)
    except ValueError as exc:
        return str(exc)
    keys = keys if isinstance(keys, list) else list(zip(*keys.tolist()))
    assert rows.dtype == np.int64 and rows.shape == (len(keys), dim)
    return keys, rows.tolist()


_BAD_INTS = [True, False, 1.0, 2.5, -1, 2**64, -(2**70), 7**40 + 1]


@st.composite
def mutated_entries(draw):
    """(entries, p, dim): a valid schema-2 entry list of up to 30 keys in
    dim up to 40, with up to three faults or big values put in."""
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 40))
    n = draw(st.integers(0, min(30, dim * dim)))
    keys = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        keys.sort()
    entries = []
    for i, j in keys:
        ms = draw(st.lists(st.integers(0, dim - 1), max_size=min(dim, 5), unique=True))
        if draw(st.booleans()):
            ms.sort()
        entries.append({"i": i, "j": j, "nz": [[m, draw(st.integers(1, p - 1))] for m in ms]})
    for _ in range(draw(st.integers(0, 3))):
        if not entries:
            break
        e = entries[draw(st.integers(0, len(entries) - 1))]
        fault = draw(st.sampled_from(["key", "coordinate", "value", "short", "long", "pair twice", "key twice",
                                      "key range", "coordinate range", "not a list", "missing"]))
        bad = draw(st.sampled_from(_BAD_INTS + [dim, dim + 1]))
        if fault == "key":
            e[draw(st.sampled_from("ij"))] = bad
        elif fault == "key range":
            e[draw(st.sampled_from("ij"))] = draw(st.sampled_from([-1, dim, 2**64, -(2**70)]))
        elif fault == "key twice":
            entries.append(copy.deepcopy(e))
        elif fault == "not a list":
            e["nz"] = draw(st.sampled_from([None, {}, 3, "nz"]))
        elif fault == "missing":
            del e[draw(st.sampled_from(["i", "j", "nz"]))]
        elif not isinstance(e.get("nz"), list):
            continue  # an earlier fault took the pairs away
        elif not e["nz"]:
            e["nz"].append([draw(st.integers(0, dim - 1)), 1])
        else:
            pair = e["nz"][draw(st.integers(0, len(e["nz"]) - 1))]
            if len(pair) < 2:
                continue
            if fault == "coordinate":
                pair[0] = bad
            elif fault == "coordinate range":
                pair[0] = draw(st.sampled_from([-1, dim, 2**64, -(2**70)]))
            elif fault == "value":
                pair[1] = bad
            elif fault == "short":
                del pair[1:]
            elif fault == "long":
                pair.append(0)
            else:
                e["nz"].append(list(pair))
    return entries, p, dim


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutated_entries())
def test_reader_matches_its_reference(case):
    entries, p, dim = case
    assert _outcome(_checked_sc, entries, p, dim) == _outcome(reference_checked_sc, entries, p, dim)


# ---------------------------------------------------------------- the text reader against the dict reader


def _read(read):
    """What read() makes: the algebra's fields, or the type and message of
    what it raised."""
    try:
        a = read()
    except Exception as exc:  # noqa: BLE001 -- the two readers must raise alike
        return type(exc), str(exc)
    keys, rows = a._keys, a._rows
    return a.kind, a.p, a.dim, a.labels, keys.dtype, keys.shape, keys.tolist(), rows.dtype, rows.shape, rows.tolist()


def _both_readers(text: str):
    """(from_json's outcome on the text, the text reader tried at any size;
    its outcome on the document json.loads parses, a parse error included)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "TEXT_READER_MIN_CHARS", 0)
        by_text = _read(lambda: StructureConstantAlgebra.from_json(text))
    return by_text, _read(lambda: StructureConstantAlgebra.from_json(json.loads(text)))


_MUTATION_BYTES = st.sampled_from('0123456789[]{},:" -') | st.sampled_from("abceijlnrsz")


@st.composite
def mutated_texts(draw):
    """json_text of an algebra over GF(2), GF(3) or GF(5), as the CLI writes it
    at times, with one to three bytes inserted, deleted or replaced."""
    text = draw(algebras_to_write(primes=(2, 3, 5))).json_text() + draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = "" if op == "delete" else draw(_MUTATION_BYTES)
        text = text[:at] + new + text[at + (op != "insert") :]
    return text


def _parsed(read) -> dict:
    """The document that _read_text's output stands for, as json.loads gives it."""
    doc, (keys, counts, ms, vs) = read
    assert {keys.dtype, counts.dtype, ms.dtype, vs.dtype} == {np.dtype(np.int64)}
    ends = counts.cumsum().tolist()
    sc = [{"i": i, "j": j, "nz": [list(pair) for pair in zip(ms[a:b].tolist(), vs[a:b].tolist())]}
          for i, j, a, b in zip(*keys.tolist(), [0, *ends], ends)]
    return dict(doc, sc=sc)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(mutated_texts())
def test_text_reader_matches_the_dict_reader(text):
    by_text, by_dict = _both_readers(text)
    assert by_text == by_dict
    read = _read_text(text)
    if read is not None:  # taken only as what json.loads parses
        assert _parsed(read) == json.loads(text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(algebras_to_write())
def test_text_reader_takes_every_written_document(a):
    text = a.json_text()
    assert _read_text(text) is not None and _read_text(text + "\n") is not None
    by_text, by_dict = _both_readers(text)
    assert by_text == by_dict and by_text[3] == a.labels


def test_text_reader_reads_many_digit_ints_above_the_floor():
    # keys and coordinates past 99 and values past 999 take the reader's
    # third and fourth digit places, which the small written documents do not
    d, p = 150, 8191
    sc = {(i, 149 - i): [(977 * m + 31 * i) % p if (m + i) % 3 == 0 else 0 for m in range(d)] for i in range(0, 60, 4)}
    a = StructureConstantAlgebra("lie", PrimeField(p), d, sc)
    text = a.json_text()
    assert len(text) >= TEXT_READER_MIN_CHARS and "[149, " in text and re.search(r", [1-9][0-9]{3}\]", text)
    read = _read_text(text)
    assert read is not None and _parsed(read) == json.loads(text)
    by_text = _read(lambda: StructureConstantAlgebra.from_json(text))
    assert by_text == _read(lambda: StructureConstantAlgebra.from_json(json.loads(text)))
    assert by_text[6] == a._keys.tolist() and by_text[9] == a._rows.tolist()


def _edited(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


_OVERRIDES = _pinned_algebra("lie-overrides").json_text()


@pytest.mark.parametrize(
    "text, taken",
    [
        (_OVERRIDES, True),  # "nz": [] for the stored zero product (0, 2)
        (StructureConstantAlgebra("assoc", F3, 5, {}).json_text(), True),  # "sc": []
        (StructureConstantAlgebra("lie", F2, 0, {}).json_text(), True),
        (StructureConstantAlgebra("lie", F5, 3, {(0, 1): [0, 0, 1]}, ["}]", '"q"}]', "é∑😀"]).json_text(), True),
        (_edited(_OVERRIDES, "[[2, 3]]", "[[2, 1000000003]]"), False),  # a 10-digit value
        (_edited(_OVERRIDES, "[[2, 3]]", "[[2, 03]]"), False),  # a leading zero
        (_edited(_OVERRIDES, '"j": 1, "nz": [[2, 3]]', '"j": 1, "nz": [[2, 0]]'), True),  # [m, 0]
        (_edited(_OVERRIDES, "[[2, 3]]", "[[2, 5]]"), True),  # v = p
        (_edited(_OVERRIDES, '"i": 0, "j": 2', '"i": 2, "j": 0'), True),  # keys out of order
        (_edited(_OVERRIDES, '"i": 0, "j": 2', '"i": 0, "j": 1'), True),  # a key twice
        (_edited(_OVERRIDES, "[[2, 1], [3, 1]]", "[[3, 1], [2, 1]]"), True),  # coordinates out of order
        (_edited(_OVERRIDES, '"dim": 4', '"dim": 3'), True),  # a coordinate equal to dim
        (_edited(_OVERRIDES, '"p": 5', '"p": 4'), True),
        (_edited(_OVERRIDES, '"p": 5', '"p": 8209'), True),
        (_edited(_OVERRIDES, '"sc": [', '"sc":  ['), False),
        (_OVERRIDES[:-1] + ', "labels": ["a", "b", "c", "d"]}', True),
        (_OVERRIDES[:-1] + ', "labels": ["a", "b", "c"]}', True),
        (_OVERRIDES[:-1] + ', "labels": ["a", "b", "c", 4]}', True),
        (_OVERRIDES[:-1] + ', "labels": ["a",  "b", "c", "d"]}', True),
        (_OVERRIDES[:-1] + ', "labels": null}', True),
        (_OVERRIDES + "\n \t\r", True),
        (" " + _OVERRIDES, False),
        (_OVERRIDES + "]", False),
        (_edited(_OVERRIDES, '"sc": [{', '"sc": [0{'), False),  # a run at the body's first byte
    ],
)
def test_text_reader_cases(text, taken):
    by_text, by_dict = _both_readers(text)
    assert by_text == by_dict
    assert (_read_text(text) is not None) is taken


def test_small_documents_skip_the_text_reader(monkeypatch):
    # every exact-p3 and pipeline-p2 algebra is smaller than the pipeline-d12 one
    small, large = _pinned_algebra("pipeline-d12").json_text(), _pinned_algebra("lie-d48").json_text()
    assert len(small) < TEXT_READER_MIN_CHARS <= len(large)
    monkeypatch.setattr(algebra, "_read_text", lambda text: pytest.fail("read below the floor"))
    assert StructureConstantAlgebra.from_json(small).json_text() == small


def _cli_outputs(text: str, tmp_path, capsys) -> list:
    """(exit code, stdout, -o bytes) of verify, greedy search and unitalize on
    the text as the CLI writes it, which is read from its bytes; the same on a
    re-indented copy, read through json.loads, must be equal."""
    canonical, indented = tmp_path / "canonical.json", tmp_path / "indented.json"
    canonical.write_text(text + "\n")
    indented.write_text(json.dumps(json.loads(text), indent=1))
    assert _read_text(canonical.read_text()) is not None and _read_text(indented.read_text()) is None
    outputs = []
    for path in (canonical, indented):
        out = tmp_path / f"unit-{path.stem}.json"
        out.unlink(missing_ok=True)
        for argv in (["verify"], ["search", "--mode", "greedy"], ["unitalize", "-o", str(out)]):
            code = main([argv[0], "--alg", str(path), *argv[1:]])
            outputs.append((code, capsys.readouterr().out, out.read_bytes() if out.exists() else None))
    assert outputs[:3] == outputs[3:]
    return outputs[:3]


_KEY = re.compile(r'\{"i": [0-9]+, "j": [0-9]+')


@pytest.mark.parametrize("name", ["lie-d48", "assoc-d48", "unital-d49"])
def test_the_cli_reads_a_large_document_alike_from_both_readers(name, tmp_path, capsys):
    text = _pinned_algebra(name).json_text()
    # unitalize adjoins an identity to the assoc kind only, and greedy needs class 2
    codes = {"lie-d48": [0, 0, 1], "assoc-d48": [0, 0, 0], "unital-d49": [0, 1, 0]}
    assert [code for code, _, _ in _cli_outputs(text, tmp_path, capsys)] == codes[name]
    # faults of value and order in the writer's layout, above the floor: the
    # text reader takes them, and the one checker reduces or rejects them
    first, second = list(_KEY.finditer(text))[:2]
    value = re.search(r"\[\[[0-9]+, ([0-9]+)\]", text)  # the first pair's v
    faulty = {
        "a key twice": text[: second.start()] + first[0] + text[second.end() :],
        "v = p": text[: value.start(1)] + str(json.loads(text)["p"]) + text[value.end(1) :],
        "keys swapped": text[: first.start()] + second[0] + text[first.end() : second.start()] + first[0]
        + text[second.end() :],
        "[m, 0]": text[: value.start(1)] + "0" + text[value.end(1) :],
    }
    for fault, bad in faulty.items():
        assert len(bad) >= TEXT_READER_MIN_CHARS
        outputs = _cli_outputs(bad, tmp_path, capsys)
        if fault == "a key twice":
            key = tuple(json.loads(first[0] + "}").values())
            assert outputs == [(1, json.dumps({"error": f"duplicate structure constant key {key}"}) + "\n", None)] * 3
    # a coordinate equal to dim, in the writer's layout and above the floor
    d = json.loads(text)["dim"]
    at = text.index('"nz": [[') + len('"nz": [[')
    bad = text[:at] + str(d) + text[text.index(",", at) :]
    assert len(bad) >= TEXT_READER_MIN_CHARS
    assert _cli_outputs(bad, tmp_path, capsys) == [(1, json.dumps({"error": f"nz coordinate out of range [0, {d})"}) + "\n", None)] * 3


# ---------------------------------------------------------------- ints beyond int64


def _large(nz: list, key=(0, 1)) -> dict:
    """A schema-2 p = 3 document of dim 24 with 23 keys, more cells than
    SMALL_MATRIX_CELLS; the first entry has key and nz as given."""
    sc = [{"i": key[0], "j": key[1], "nz": nz}] + [{"i": 1, "j": j, "nz": [[0, 1]]} for j in range(2, 24)]
    assert len(sc) * 24 > SMALL_MATRIX_CELLS
    return {"schema": 2, "kind": "assoc", "p": 3, "dim": 24, "sc": sc}


def _small(nz: list, key=(0, 1)) -> dict:
    return {"schema": 2, "kind": "assoc", "p": 3, "dim": 3, "sc": [{"i": key[0], "j": key[1], "nz": nz}]}


_BEYOND = [2**64, -(2**70)]


@pytest.mark.parametrize("doc", [_small, _large], ids=["small", "large"])
@pytest.mark.parametrize("big", _BEYOND)
def test_ints_beyond_int64_are_out_of_range(doc, big, tmp_path, capsys):
    faulty = [
        (doc([[big, 1]]), "nz coordinate out of range"),
        (doc([[0, 1]], key=(big, 1)), f"structure constant key ({big}, 1) out of range"),
        (doc([[0, 1]], key=(0, big)), f"structure constant key (0, {big}) out of range"),
    ]
    for obj, message in faulty:
        with pytest.raises(ValueError, match=re.escape(message)):
            StructureConstantAlgebra.from_json(obj)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(obj))
        code = main(["verify", "--alg", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1 and len(out) == 1 and message in json.loads(out[0])["error"]


@pytest.mark.parametrize("doc", [_small, _large], ids=["small", "large"])
def test_values_beyond_int64_reduce_exactly(doc, tmp_path, capsys):
    # numpy reads the second list as float64, which cannot hold 2^63 - 1
    for values in ([7**40 + 1, 0, -(2**70)], [-1, 2**63, 2**63 - 1]):
        obj = doc([[m, v] for m, v in enumerate(values) if v])
        nz = [[m, v % 3] for m, v in enumerate(values) if v]
        a = StructureConstantAlgebra.from_json(obj)
        assert a.to_json()["sc"][0]["nz"] == nz
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(obj))
        assert main(["unitalize", "--alg", str(path)]) == 0
        unit = json.loads(capsys.readouterr().out)
        assert unit["sc"][0] == {"i": 0, "j": 1, "nz": nz}


# ---------------------------------------------------------------- sc stays API


def test_sc_maps_every_stored_key_to_a_read_only_row():
    a = _pinned_algebra("lie-overrides")
    doc, table = json.dumps(a.to_json()), a.table().copy()
    b = StructureConstantAlgebra.from_json(json.loads(doc))
    expected = {(2, 3): [1, 0, 0, 4], (0, 1): [0, 0, 3, 0], (1, 0): [0, 0, 1, 1], (0, 2): [0, 0, 0, 0]}
    for alg, order in ((a, list(expected)), (b, sorted(expected))):
        assert list(alg.sc) == order  # stored order: the constructor's, or the document's
        assert {key: row.tolist() for key, row in alg.sc.items()} == expected
        for row in alg.sc.values():
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1
        assert alg.sc is alg.sc
        # reading sc leaves the document and the table as they were
        assert json.dumps(alg.to_json()) == doc
        assert np.array_equal(alg.table(), table)
    # the explicit reverse key wins over the derived negation
    assert a.table()[1, 0].tolist() == [0, 0, 1, 1] and a.table()[3, 2].tolist() == [4, 0, 0, 1]


def test_sc_of_built_algebras():
    lie = _pinned_algebra("lie-d7")
    unit = unitalize(build_assoc_from_forms(sample_form_tuple(2, 3, "general", F3, 0)))
    for a in (lie, unit, matrix_algebra(2, F3)):
        t = a.table()
        assert len(a.sc) == len(a.to_json()["sc"])
        assert all(np.array_equal(t[i, j], row) for (i, j), row in a.sc.items())
    d = unit.dim - 1
    assert (d, d) in unit.sc and unit.sc[(d, d)].tolist() == [0] * d + [1]
