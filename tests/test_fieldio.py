"""Round trips and error paths for CSV / PGM field files."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlflow.cli import main
from nlflow.errors import NlflowError
from nlflow.fieldio import load_field, save_field, write_json
from nlflow.grid import Field, Grid


def grid_1d(m=64, length=16.0):
    return Grid(dimension=1, side_length=length, points_per_axis=m)


def grid_2d(m=16, length=16.0):
    return Grid(dimension=2, side_length=length, points_per_axis=m)


def random_signal(seed=0, m=64, length=16.0):
    g = grid_1d(m, length)
    rng = np.random.default_rng(seed)
    return Field(g, rng.uniform(-3.0, 3.0, g.n_nodes))


def random_image(seed=0, m=16, length=16.0, maxval=255):
    """2-d field already quantized to the PGM lattice, so saving is lossless."""
    g = grid_2d(m, length)
    rng = np.random.default_rng(seed)
    v = np.round(rng.uniform(0.0, 1.0, g.n_nodes) * maxval) / maxval
    return Field(g, v)


# ---------------------------------------------------------------------------
# CSV

def test_csv_round_trip_is_bit_exact(tmp_path):
    field = random_signal(seed=3)
    path = tmp_path / "sig.csv"
    save_field(field, str(path))
    back = load_field(str(path))
    assert np.array_equal(back.values, field.values)
    assert back.grid.dimension == 1
    assert back.grid.points_per_axis == 64
    assert back.grid.side_length == 16.0


def test_csv_header_carries_the_grid(tmp_path):
    field = random_signal(seed=1, m=32, length=24.0)
    path = tmp_path / "sig.csv"
    save_field(field, str(path))
    first = path.read_text().splitlines()[0]
    assert first == "# nlflow field N=1 M=32 L=24.0"
    back = load_field(str(path))
    assert back.grid.side_length == 24.0
    assert back.grid.points_per_axis == 32


def test_csv_without_header_needs_a_grid(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(str(i) for i in range(8)) + "\n")
    with pytest.raises(NlflowError, match="no grid header"):
        load_field(str(path))


def test_csv_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "sig.csv"
    lines = ["# nlflow field N=1 M=8 L=16.0", "", "# a note"]
    lines += [repr(float(i)) for i in range(8)]
    path.write_text("\n".join(lines) + "\n")
    back = load_field(str(path))
    assert np.array_equal(back.values, np.arange(8.0))


def test_csv_bad_token_reports_the_line(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# nlflow field N=1 M=8 L=16.0\n1.0\nbogus\n")
    with pytest.raises(NlflowError, match=r":3: not a number"):
        load_field(str(path))


def test_csv_value_count_mismatch(tmp_path):
    path = tmp_path / "sig.csv"
    body = "\n".join(["# nlflow field N=1 M=64 L=16.0"] + ["0.5"] * 63)
    path.write_text(body + "\n")
    with pytest.raises(NlflowError, match="63 values"):
        load_field(str(path))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("")
    with pytest.raises(NlflowError, match="empty"):
        load_field(str(path))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=8, max_size=8))
def test_csv_repr_round_trip_property(tmp_path_factory, values):
    g = grid_1d(8)
    path = tmp_path_factory.mktemp("csv") / "prop.csv"
    save_field(Field(g, np.asarray(values)), str(path))
    back = load_field(str(path))
    assert np.array_equal(back.values, np.asarray(values))


# ---------------------------------------------------------------------------
# PGM

def test_pgm_binary_round_trip(tmp_path):
    field = random_image(seed=2, length=24.0)
    path = tmp_path / "img.pgm"
    save_field(field, str(path))
    assert path.read_bytes()[:2] == b"P5"
    back = load_field(str(path))
    assert np.array_equal(back.values, field.values)
    # the grid tag rides along in a header comment
    assert back.grid.dimension == 2
    assert back.grid.side_length == 24.0


def test_pgm_ascii_matches_binary(tmp_path):
    field = random_image(seed=4)
    p2, p5 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    px = np.round(field.values * 255).astype(int)
    p2.write_bytes(b"P2\n16 16\n255\n"
                   + " ".join(map(str, px)).encode("ascii") + b"\n")
    save_field(field, str(p5))
    a, b = load_field(str(p2)), load_field(str(p5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, field.values)


def test_pgm_sixteen_bit_round_trip(tmp_path):
    field = random_image(seed=6, maxval=65535)
    path = tmp_path / "deep.pgm"
    px = np.round(field.values * 65535).astype(">u2")   # big-endian pairs
    path.write_bytes(b"P5\n16 16\n65535\n" + px.tobytes())
    back = load_field(str(path))
    assert np.array_equal(back.values, field.values)


def test_all_white_image_loads_as_ones(tmp_path):
    g = grid_2d(8)
    path = tmp_path / "white.pgm"
    save_field(Field(g, np.ones(g.n_nodes)), str(path))
    back = load_field(str(path))
    assert np.all(back.values == 1.0)


def test_save_load_save_is_byte_identical(tmp_path):
    for name, field in (("a.csv", random_signal(seed=9)),
                        ("a.pgm", random_image(seed=9))):
        first = tmp_path / name
        second = tmp_path / ("again-" + name)
        save_field(field, str(first))
        save_field(load_field(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


def test_load_sniffs_magic_without_extension(tmp_path):
    img = random_image(seed=1)
    pgm = tmp_path / "img.pgm"
    save_field(img, str(pgm))
    blob = tmp_path / "blob.dat"
    blob.write_bytes(pgm.read_bytes())
    back = load_field(str(blob))
    assert np.array_equal(back.values, img.values)

    sig = random_signal(seed=1)
    csv = tmp_path / "sig.csv"
    save_field(sig, str(csv))
    text = tmp_path / "text.dat"
    text.write_text(csv.read_text())
    assert np.array_equal(load_field(str(text)).values, sig.values)


def test_untagged_pgm_gets_the_default_grid(tmp_path):
    path = tmp_path / "plain.pgm"
    pixels = " ".join(["0"] * 64)
    path.write_bytes(f"P2\n8 8\n255\n{pixels}\n".encode("ascii"))
    back = load_field(str(path))
    assert back.grid.dimension == 2
    assert back.grid.points_per_axis == 8
    assert back.grid.side_length == 16.0


def test_pgm_grid_mismatch(tmp_path):
    path = tmp_path / "img.pgm"
    save_field(random_image(m=16), str(path))
    # the header names a 32 x 32 grid for the 16 x 16 image
    path.write_bytes(path.read_bytes().replace(b"M=16 ", b"M=32 ", 1))
    with pytest.raises(NlflowError, match="16x16"):
        load_field(str(path))


def test_pgm_save_guards(tmp_path):
    with pytest.raises(NlflowError, match="1-d"):
        save_field(random_image(), str(tmp_path / "x.csv"))
    with pytest.raises(NlflowError, match="2-d"):
        save_field(random_signal(), str(tmp_path / "x.pgm"))
    g = grid_2d(8)
    hot = Field(g, np.full(g.n_nodes, 1.5))
    with pytest.raises(NlflowError, match=r"values in \[0, 1\]"):
        save_field(hot, str(tmp_path / "hot.pgm"))
    with pytest.raises(NlflowError, match="unknown field format"):
        save_field(random_signal(), str(tmp_path / "x.npy"))


def test_pgm_load_guards(tmp_path):
    bad_magic = tmp_path / "p3.pgm"
    bad_magic.write_bytes(b"P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(NlflowError, match="not a PGM"):
        load_field(str(bad_magic))

    rect = tmp_path / "rect.pgm"
    rect.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
    with pytest.raises(NlflowError, match="square"):
        load_field(str(rect))

    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P2\n2 2\n70000\n0 0 0 0\n")
    with pytest.raises(NlflowError, match="maxval 70000"):
        load_field(str(deep))

    hot = tmp_path / "hot.pgm"
    pixels = " ".join(["300"] + ["0"] * 63)
    hot.write_bytes(f"P2\n8 8\n255\n{pixels}\n".encode("ascii"))
    with pytest.raises(NlflowError, match="above declared maxval"):
        load_field(str(hot))

    short = tmp_path / "short.pgm"
    full = tmp_path / "full.pgm"
    save_field(random_image(m=8), str(full))
    short.write_bytes(full.read_bytes()[:-1])
    with pytest.raises(NlflowError, match="pixel bytes"):
        load_field(str(short))


def test_grid_rules_name_the_file(tmp_path):
    # a grid the file implies breaks a lattice rule: the error names the file
    # before the rule, as every other load error does
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    small = tmp_path / "small.csv"
    small.write_text("\n".join(["# nlflow field N=1 M=4 L=16.0"]
                               + ["0.5"] * 4) + "\n")
    cube = tmp_path / "cube.csv"
    cube.write_text("# nlflow field N=3 M=8 L=16.0\n")
    lattice = "need an integer of at least 8 points per axis"
    for path, rule in ((tiny, lattice), (small, lattice),
                       (cube, "dimension must be 1 or 2")):
        with pytest.raises(NlflowError, match=re.escape(f"{path}: {rule}")):
            load_field(str(path))


# ---------------------------------------------------------------------------
# malformed files: each is refused with one error that names the file

BIG_M = b"1" + b"0" * 400
MALFORMED = {
    # file name: (bytes, the error after the path)
    "tag-l.csv": (b"# nlflow field N=1 M=8 L=1e\n" + b"0.5\n" * 8,
                  ": malformed grid tag"),
    "tag-l.pgm": (b"P5\n# nlflow field N=2 M=8 L=1e\n8 8\n255\n" + bytes(64),
                  ": malformed grid tag"),
    "tag-m.csv": (b"# nlflow field N=1 M=" + BIG_M + b" L=16.0\n"
                  + b"0.5\n" * 8, ": the spacing L/M must be a normal float"),
    "tag-m.pgm": (b"P5\n# nlflow field N=2 M=" + BIG_M
                  + b" L=16.0\n8 8\n255\n" + bytes(64),
                  ": the spacing L/M must be a normal float"),
    "byte.csv": (b"# nlflow field N=1 M=8 L=16.0\n" + b"0.5\n" * 3
                 + b"0.\x885\n" + b"0.5\n" * 4, ":5: not a number"),
    "token.pgm": (b"P2\n8 8\n255\nx1" + b" 0" * 63 + b"\n",
                  ": a pixel is not a nonnegative decimal integer"),
    "sign.pgm": (b"P2\n8 8\n255\n-1" + b" 0" * 63 + b"\n",
                 ": a pixel is not a nonnegative decimal integer"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_refused_naming_it(tmp_path, name):
    data, error = MALFORMED[name]
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(NlflowError, match=re.escape(f"{path}{error}")) as exc:
        load_field(str(path))
    assert len(str(exc.value)) < 200       # no 401-digit echo


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_denoise_aborts_on_a_malformed_file(tmp_path, capsys, name):
    # exit 3 with one line naming the file; no traceback, no --out left
    data, error = MALFORMED[name]
    path, out = tmp_path / name, tmp_path / "out"
    path.write_bytes(data)
    assert main(["denoise", "--set", f"denoise.input={path}",
                 "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"nlflow denoise: aborted: {path}{error}")
    assert not out.exists()


def test_an_unreadable_path_is_refused_naming_it(tmp_path):
    for path in (tmp_path, tmp_path / "missing.pgm"):
        with pytest.raises(NlflowError, match=re.escape(f"{path}: ")):
            load_field(str(path))


def test_write_json_spells_non_finite_floats(tmp_path):
    # JSON has no inf or nan: python and numpy floats alike are written as
    # the strings "inf", "-inf" and "nan", not as Infinity or NaN
    path = tmp_path / "report.json"
    write_json({"python": [float("inf"), -float("inf"), float("nan")],
                "numpy": np.array([np.inf, -np.inf, np.nan]),
                "scalar": np.float64(np.nan), "finite": np.float32(0.5)},
               str(path))
    assert json.loads(path.read_text()) == {
        "python": ["inf", "-inf", "nan"], "numpy": ["inf", "-inf", "nan"],
        "scalar": "nan", "finite": 0.5}
