import decimal
import hashlib
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from qmelon import cli, laurent, schur
from qmelon.cli import main
from qmelon.laurent import LaurentPoly
from qmelon.paths import closed_genfunc, count_deviation
from qmelon.planepartitions import zq

MELON_JSON = json.dumps({
    "N": 2, "M": 1, "k": 0, "lambda": [1, 0],
    "c_steps": [0, 1], "b_steps": [0, 1], "volume": 2,
})

MELON_ASCII = """\
watermelon N=2 M=1 k=0 volume=2
1-1
|
1   2
    |
  2-2
"""

PP_ASCII = """\
plane partition N=2 L=2 M=2 volume=4
2 1
1 0
"""


# sha256 of the output of `qmelon verify --suite all --no-timing`, frozen
# from a run of the reference grid, and of the same run on the 4 x 4 grid
# (533 lines) and the 5 x 5 grid (851 lines).  The
# 5 x 5 grid passes all 850 reports, and its reports with N, M <= 4 are
# the 4 x 4 reports in the same order.
VERIFY_ALL_SHA256 = "a0d169f079b8843df451a59afc62568ed1a1ac2a526e9fd1822a77a0846ff1d8"
VERIFY_4X4_SHA256 = "640f708ae9a6e87440faeab9b3bdb6f465f1be2f2d216fd87245ee0ebd5bb9a4"
VERIFY_5X5_SHA256 = "97489deae3b357ff597cc6f1eb316bf1ec37f38bcefd5b0b0f60ddc3daf06957"


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schur_all_agrees(capsys):
    code, out, _ = run_main(capsys, "schur", "--shape", "[2,1]", "--vars", "3",
                            "--alg", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verdict: OK"
    assert lines[0] == "bialternant: q + 2*q^2 + 2*q^3 + 2*q^4 + q^5"
    assert len(lines) == 6


def test_schur_all_compares_the_polynomials(capsys, monkeypatch):
    # the verdict converts no coefficient to text: only the JSON payload does
    monkeypatch.setattr(LaurentPoly, "to_pairs", None)
    code, out, _ = run_main(capsys, "schur", "--shape", "[2,1]", "--vars", "3",
                            "--alg", "all")
    assert code == 0 and out.splitlines()[-1] == "verdict: OK"
    monkeypatch.undo()
    product = cli._SCHUR_ROUTES["product"]
    monkeypatch.setitem(cli._SCHUR_ROUTES, "product", lambda lam, m: product(lam, m) + 1)
    code, out, _ = run_main(capsys, "schur", "--shape", "[2,1]", "--vars", "3",
                            "--alg", "all")
    assert code == 1 and out.splitlines()[-1] == "verdict: DISAGREE"
    code, out, _ = run_main(capsys, "schur", "--shape", "[2,1]", "--vars", "3",
                            "--alg", "all", "--format", "json")
    assert code == 1 and json.loads(out)["agree"] is False


def test_schur_single_default(capsys):
    code, out, _ = run_main(capsys, "schur", "--shape", "[]", "--vars", "1")
    assert code == 0
    assert out.strip() == "1"


def test_schur_json(capsys):
    code, out, _ = run_main(capsys, "schur", "--shape", "[1]", "--vars", "2",
                            "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["values"]["bialternant"] == [[0, "1"], [1, "1"]]


def test_schur_parse_error(capsys):
    code, _, err = run_main(capsys, "schur", "--shape", "[1,2]")
    assert code == 2
    assert "error" in err


def test_schur_not_enough_vars(capsys):
    code, _, err = run_main(capsys, "schur", "--shape", "[2,1,1]", "--vars", "2")
    assert code == 2
    assert err == "error: shape has 3 parts but only 2 variables\n"


def test_schur_single_alg_runs_only_that_route(capsys, monkeypatch):
    def refuse(*args):
        raise RuntimeError("tableau_sum must not run for --alg bialternant")

    monkeypatch.setattr(cli, "tableau_sum", refuse)
    code, out, _ = run_main(capsys, "schur", "--shape", "[2,1]", "--vars", "3",
                            "--alg", "bialternant")
    assert code == 0
    assert out == "q + 2*q^2 + 2*q^3 + 2*q^4 + q^5\n"


def test_schur_all_routes_at_9_variables(capsys):
    code, out, _ = run_main(capsys, "schur", "--shape", "[3,2,1]", "--vars", "9",
                            "--alg", "all")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: OK"


def test_count_number(capsys):
    code, out, _ = run_main(capsys, "count", "--n", "2", "--l", "2", "--m", "2")
    assert code == 0
    assert out.strip() == "20"


def test_count_zero_box(capsys):
    code, out, _ = run_main(capsys, "count", "--n", "0", "--l", "3", "--m", "2")
    assert code == 0
    assert out.strip() == "1"


def test_count_genfunc_text(capsys):
    code, out, _ = run_main(capsys, "count", "--n", "1", "--l", "1", "--m", "4",
                            "--what", "genfunc")
    assert code == 0
    assert out.strip() == "1 + q + q^2 + q^3 + q^4"


def test_count_csv(capsys):
    code, out, _ = run_main(capsys, "count", "--n", "2", "--l", "2", "--m", "2",
                            "--what", "zq", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,l,m,what,value"
    assert lines[1].startswith("2,2,2,zq,")


def test_count_json(capsys):
    code, out, _ = run_main(capsys, "count", "--n", "2", "--l", "2", "--m", "2",
                            "--what", "genfunc", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"][0] == [0, "1"]
    assert data["what"] == "genfunc"


# the 9 x 9 x 9 box has coefficients and a count past 2**64
@pytest.mark.parametrize("what, box", [
    *((what, box) for what in ("number", "genfunc", "zq")
      for box in [(0, 3, 2), (1, 1, 0), (2, 2, 2), (3, 1, 4), (5, 5, 5)]),
    ("number", (9, 9, 9)), ("genfunc", (9, 9, 9))])
def test_count_json_is_json_dumps_byte_for_byte(capsys, what, box):
    n, l, m = box
    value = {"number": count_deviation, "genfunc": closed_genfunc, "zq": zq}[what](n, l, m)
    wire = value if what == "number" else value.to_pairs()
    code, out, _ = run_main(capsys, "count", "--n", str(n), "--l", str(l), "--m", str(m),
                            "--what", what, "--format", "json")
    assert code == 0
    assert out == json.dumps({"n": n, "l": l, "m": m, "what": what, "value": wire},
                             sort_keys=True) + "\n"


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_count_number_past_the_int_str_digit_limit(capsys, fmt, default_digit_limit):
    # 30,678 digits, past the default limit of 4,300; the limit is lifted for
    # the conversion alone
    code, out, err = run_main(capsys, "count", "--n", "300", "--l", "300", "--m", "300",
                              "--format", fmt)
    assert code == 0 and err == ""
    digits = str(decimal.Decimal(count_deviation(300, 300, 300)))
    assert len(digits) == 30678
    assert out == {"text": f"{digits}\n",
                   "json": f'{{"l": 300, "m": 300, "n": 300, "value": {digits}, '
                           f'"what": "number"}}\n',
                   "csv": f"n,l,m,what,value\n300,300,300,number,{digits}\n"}[fmt]
    if default_digit_limit is not None:
        assert sys.get_int_max_str_digits() == default_digit_limit


@pytest.mark.parametrize("sides", [("1000", "1000", "1000"), ("1", "1000000000", "1000000000"),
                                   ("1" + "0" * 200,) * 3])
def test_huge_count_is_one_usage_error_at_once(capsys, sides):
    start = time.process_time()
    code, out, err = run_main(capsys, "count", "--n", sides[0], "--l", sides[1],
                              "--m", sides[2])
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_negative(capsys):
    for what in ("number", "genfunc", "zq"):
        code, _, err = run_main(capsys, "count", "--n", "-1", "--l", "1", "--m", "1",
                                "--what", what)
        assert code == 2
        assert err == "error: box dimensions must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ("count", "--what", "genfunc", "--n", "1", "--l", "1000000000", "--m", "1"),
    ("schur", "--shape", "[99999999999]", "--vars", "2", "--alg", "product"),
    ("schur", "--shape", "[99999999999]", "--vars", "2", "--alg", "hdet"),
    ("schur", "--shape", "[99999999999]", "--vars", "2", "--alg", "gvdet"),
], ids=["genfunc", "product", "hdet", "gvdet"])
def test_oversized_coefficient_list_is_a_usage_error(capsys, argv):
    # each would need a list of about 10**9 or 10**11 coefficients
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "coefficients" in err and "Traceback" not in err


@pytest.mark.parametrize("alg, message", [
    ("tableaux", "would take 1700000000000 or more branching steps"),
    ("bialternant", "has a quotient of 100000000000 coefficients"),
    ("all", "has a quotient of 100000000000 coefficients"),
])
def test_oversized_single_row_is_a_usage_error(capsys, alg, message):
    # 10**11 + 1 shapes on the first level, 10**11 quotient terms: both
    # routes are refused before any polynomial is built
    code, out, err = run_main(capsys, "schur", "--shape", "[99999999999]", "--vars", "2",
                              "--alg", alg)
    assert code == 2
    assert out == ""
    assert err == f"error: shape (99999999999,) in 2 letters {message}, over the limit of 10000000\n"


def test_oversized_alternant_is_a_usage_error(capsys, monkeypatch):
    # a quotient of 2000 terms, but a Bareiss alternant of 2000 rows: it is
    # refused before the monomial matrix is built
    monkeypatch.setattr(schur, "det_fraction_free", None)
    code, out, err = run_main(capsys, "schur", "--shape", "[1]", "--vars", "2000",
                              "--alg", "bialternant")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: shape \(1,\) in 2000 letters would take \d+ alternant steps, "
                        r"over the limit of 10000000000\n", err)


def test_alternant_past_its_exact_charge_is_a_usage_error(capsys, monkeypatch):
    # 140 letters pass the lower bound; the exact charge of the monomial
    # matrix, 9.3 * 10**19 steps, refuses it before any entry is built
    monkeypatch.setattr(laurent.PolyMatrix, "__init__", None)
    monkeypatch.setattr(schur, "_monomial_values", lambda *args: pytest.fail("evaluated"))
    code, out, err = run_main(capsys, "schur", "--shape", "[1]", "--vars", "140",
                              "--alg", "bialternant")
    assert code == 2
    assert out == ""
    assert err == ("error: a determinant of 140 rows and 170275125 bytes would take "
                   "93409893115552848492 elimination steps, over the limit of 10000000000\n")


def test_oversized_zq_box_is_a_usage_error(capsys):
    # 185 M state slots, refused before any state is built
    code, out, err = run_main(capsys, "count", "--what", "zq",
                              "--n", "10", "--l", "10", "--m", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: zq of the box 10x10x10 ") and err.count("\n") == 1
    assert "state slots" in err and "Traceback" not in err


def test_huge_zq_box_prints_its_own_refusal(capsys):
    # its slot count has about 60,000 digits, past what str() converts
    code, out, err = run_main(capsys, "count", "--what", "zq",
                              "--n", "100000", "--l", "100000", "--m", "100000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: zq of the box 100000x100000x100000 needs ")


def test_verify_small_suite(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "qbinet",
                            "--max-n", "2", "--max-m", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# passed 4/4"
    for line in lines[:-1]:
        data = json.loads(line)
        assert data["equal"] is True
        assert data["identity"] == "q-binet-cauchy"


def test_verify_gv_box(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "gv",
                            "--shapes-in-box", "2,2")
    assert code == 0
    assert out.splitlines()[-1] == "# passed 6/6"


def test_verify_empty_grid(capsys):
    code, out, _ = run_main(capsys, "verify", "--suite", "qbinet", "--max-n", "0")
    assert code == 0
    assert out.strip() == "# passed 0/0"


@pytest.mark.parametrize("flag", ["--max-n", "--max-m", "--max-k"])
def test_verify_negative_bound_is_usage_error(capsys, flag):
    code, out, err = run_main(capsys, "verify", "--suite", "all", flag, "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_deterministic_modulo_timing(capsys):
    argv = ("verify", "--suite", "melon", "--max-n", "2", "--max-m", "1", "--no-timing")
    _, out1, _ = run_main(capsys, *argv)
    _, out2, _ = run_main(capsys, *argv)
    assert out1 == out2


def test_verify_no_timing_drops_only_elapsed_ms(capsys):
    argv = ("verify", "--suite", "all", "--max-n", "2", "--max-m", "2")
    _, timed, _ = run_main(capsys, *argv)
    _, untimed, _ = run_main(capsys, *argv, "--no-timing")
    timed, untimed = timed.splitlines(), untimed.splitlines()
    assert len(timed) == len(untimed) == 131 and timed[-1] == untimed[-1] == "# passed 130/130"
    for line, bare in zip(timed[:-1], untimed[:-1]):
        data = json.loads(line)
        assert isinstance(data.pop("elapsed_ms"), float)
        assert bare == json.dumps(data, sort_keys=True)


def verify_all_digest(capsys, *extra):
    code, out, _ = run_main(capsys, "verify", "--suite", "all", "--no-timing", *extra)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_verify_all_output_frozen(capsys):
    assert verify_all_digest(capsys) == VERIFY_ALL_SHA256


def test_verify_4x4_output_frozen(capsys):
    assert verify_all_digest(capsys, "--max-n", "4", "--max-m", "4") == VERIFY_4X4_SHA256


def test_verify_5x5_output_frozen(capsys):
    assert verify_all_digest(capsys, "--max-n", "5", "--max-m", "5") == VERIFY_5X5_SHA256


def test_verify_workers_match_serial(capsys):
    argv = ("verify", "--suite", "zq", "--max-n", "2", "--max-m", "2", "--no-timing")
    _, serial, _ = run_main(capsys, *argv)
    _, para, _ = run_main(capsys, *argv, "--workers", "2")
    assert serial == para
    assert serial.splitlines()[-1] == "# passed 6/6"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "reports.jsonl"
    code, out, _ = run_main(capsys, "verify", "--suite", "kuperberg",
                            "--max-n", "1", "--max-m", "1", "--out", str(target))
    assert code == 0
    assert out.strip() == "# passed 1/1"
    lines = target.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["identity"] == "kuperberg"


def test_verify_out_unwritable_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_grid(cases, workers):
        raise AssertionError("the grid ran before the report file was opened")
    monkeypatch.setattr(cli, "run_cases", no_grid)
    code, out, err = run_main(capsys, "verify", "--suite", "kuperberg",
                              "--out", str(tmp_path / "missing" / "x.jsonl"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_bad_box(capsys):
    # int() would read "1_0" as 10 and "\u0662" as 2; only ASCII digits count
    for box in ("2x2", "1_0,0", "\u0662,1"):
        code, _, err = run_main(capsys, "verify", "--suite", "gv",
                                "--shapes-in-box", box)
        assert code == 2
        assert err.startswith("error:")
    code, out, _ = run_main(capsys, "verify", "--suite", "gv",
                            "--shapes-in-box", " 1 , 1 ")
    assert code == 0
    assert out.splitlines()[-1] == "# passed 2/2"


def test_render_watermelon_ascii(tmp_path, capsys):
    src = tmp_path / "melon.json"
    src.write_text(MELON_JSON)
    code, out, _ = run_main(capsys, "render", "--input", str(src))
    assert code == 0
    assert out == MELON_ASCII


def test_render_pp_ascii(tmp_path, capsys):
    src = tmp_path / "pp.json"
    src.write_text(json.dumps({"N": 2, "L": 2, "M": 2, "parts": [[2, 1], [1, 0]]}))
    code, out, _ = run_main(capsys, "render", "--input", str(src))
    assert code == 0
    assert out == PP_ASCII


def test_render_empty_pp(tmp_path, capsys):
    src = tmp_path / "pp.json"
    src.write_text(json.dumps({"N": 2, "L": 2, "M": 2, "parts": []}))
    code, out, _ = run_main(capsys, "render", "--input", str(src))
    assert code == 0
    assert out.splitlines()[0] == "plane partition N=2 L=2 M=2 volume=0"
    assert out.splitlines()[1:] == ["0 0", "0 0"]


def test_render_svg_deterministic(tmp_path, capsys):
    src = tmp_path / "melon.json"
    src.write_text(MELON_JSON)
    code, out1, _ = run_main(capsys, "render", "--input", str(src), "--style", "svg")
    code2, out2, _ = run_main(capsys, "render", "--input", str(src), "--style", "svg")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert out1.count("<polyline") == 2


def test_render_pp_svg(tmp_path, capsys):
    src = tmp_path / "pp.json"
    src.write_text(json.dumps({"N": 1, "L": 1, "M": 2, "parts": [[2]]}))
    code, out, _ = run_main(capsys, "render", "--input", str(src), "--style", "svg")
    assert code == 0
    # one floor tile plus three faces per cube
    assert out.count("<polygon") == 1 + 3 * 2


def test_render_to_file(tmp_path, capsys):
    src = tmp_path / "melon.json"
    src.write_text(MELON_JSON)
    target = tmp_path / "fig.txt"
    code, out, _ = run_main(capsys, "render", "--input", str(src),
                            "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == MELON_ASCII


def test_render_out_unwritable_is_usage_error(tmp_path, capsys):
    src = tmp_path / "melon.json"
    src.write_text(MELON_JSON)
    code, out, err = run_main(capsys, "render", "--input", str(src),
                              "--out", str(tmp_path / "missing" / "fig.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_render_malformed(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("not json")
    code, _, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2
    src.write_text(json.dumps({"stuff": 1}))
    code, _, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2
    code, _, err = run_main(capsys, "render", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    src.write_bytes(b"\xff\xfe{")
    code, _, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2
    assert err.startswith("error:")
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2
    assert err.startswith("error:")


def test_render_volume_mismatch(tmp_path, capsys):
    src = tmp_path / "bad.json"
    data = json.loads(MELON_JSON)
    data["volume"] = 7
    src.write_text(json.dumps(data))
    code, _, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2


@pytest.mark.parametrize("melon", [
    # nine B rows of four cells take at most four north steps per line, so
    # the 5 is refused by its counts; searching the fillings instead takes
    # time exponential in the rows (tens of CPU seconds)
    {"N": 9, "M": 4, "k": 0, "lambda": [0] * 9,
     "c_steps": [0] * 9, "b_steps": [4] * 7 + [3, 5]},
    # a negative count must not be read as some other realizable one
    {"N": 3, "M": 2, "k": 0, "lambda": [2, 1, 0],
     "c_steps": [-1, 2, 2], "b_steps": [1, 1, 1]},
])
def test_render_unrealizable_steps_fail_fast(tmp_path, capsys, melon):
    src = tmp_path / "melon.json"
    src.write_text(json.dumps(melon))
    start = time.process_time()
    code, out, err = run_main(capsys, "render", "--input", str(src))
    assert time.process_time() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


PP_JSON = json.dumps({"N": 2, "L": 2, "M": 2, "parts": [[2, 1], [1, 0]]})


@pytest.mark.parametrize("kind,fields", [
    ("melon", {"lambda": [True, 0]}),
    ("melon", {"N": 2.9}),
    ("melon", {"k": False}),
    ("melon", {"b_steps": ["0", 1]}),
    ("melon", {"c_steps": [0, True]}),
    ("melon", {"volume": 2.5}),
    ("pp", {"M": True, "parts": [[True, False]]}),
    ("pp", {"L": 2.0}),
    ("pp", {"parts": [[2, True], [1, 0]]}),
    ("pp", {"volume": 4.0}),
])
def test_render_rejects_non_int_fields(tmp_path, capsys, kind, fields):
    src = tmp_path / "bad.json"
    data = dict(json.loads(MELON_JSON if kind == "melon" else PP_JSON), **fields)
    src.write_text(json.dumps(data))
    code, out, err = run_main(capsys, "render", "--input", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmelon", "count", "--n", "2", "--l", "2", "--m", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "20"


def test_import_leaves_the_process_pool_unloaded():
    # run_cases imports the pool only for workers > 1; a serial run, and
    # every fresh interpreter that only imports the CLI, skips
    # multiprocessing altogether
    src = str(pathlib.Path(cli.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qmelon.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "qmelon", "bogus"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    # parsing leaves the shared parser as it was: a usage error reads the
    # same before and after a successful call
    errors = []
    for argv in (["schur"], ["schur", "--shape", "[1]"], ["schur"]):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            errors.append(capsys.readouterr().err)
    assert len(errors) == 2 and errors[0] == errors[1]
    assert "the following arguments are required: --shape" in errors[0]
