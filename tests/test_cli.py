import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from forms4d.cli import main
from forms4d.groupring import symmetric_group_s3

from support import unfactorable_presentation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_snf_identity(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    code, doc, _ = run_cli(capsys, "snf", path)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["diagonal"] == [1, 1, 1]


def test_snf_small_matrix(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"rows": [[2, 4], [6, 8]]})
    code, doc, _ = run_cli(capsys, "snf", path)
    assert code == 0
    assert doc["payload"]["diagonal"] == [2, 4]


def test_snf_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json", encoding="utf-8")
    code, doc, _ = run_cli(capsys, "snf", str(path))
    assert code == 1
    assert doc["status"] == "error"
    assert doc["diagnostics"]


def test_snf_missing_file(capsys):
    code, doc, _ = run_cli(capsys, "snf", "/nonexistent/matrix.json")
    assert code == 1
    assert doc["status"] == "error"


def test_snf_rejects_non_integer_entries(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"rows": [[1.5, 0], [0, 1]]})
    code, doc, _ = run_cli(capsys, "snf", path)
    assert code == 1


def test_snf_arbitrary_precision_entries(tmp_path, capsys):
    big = 10**40 + 7
    path = write_json(tmp_path, "m.json", {"rows": [[big, 0], [0, 2]]})
    code, doc, _ = run_cli(capsys, "snf", path)
    assert code == 0
    assert doc["payload"]["diagonal"] == [1, 2 * big]


def test_snf_digit_limit_exits_two(tmp_path, capsys):
    # lcm of the two coprime entries has 4401 digits, past the int->str limit
    path = write_json(tmp_path, "m.json", {"rows": [[10**2200 + 1, 0], [0, 10**2200 + 3]]})
    code, doc, _ = run_cli(capsys, "snf", path)
    assert code == 2
    assert doc["status"] == "error"
    assert f"{sys.get_int_max_str_digits()}-digit limit" in doc["diagnostics"][0]


def test_snf_shape_cap(tmp_path, capsys):
    for rows in ([[0] * 65], [[0]] * 65, [[1] * 65 for _ in range(65)]):
        path = write_json(tmp_path, "m.json", {"rows": rows})
        code, doc, _ = run_cli(capsys, "snf", path)
        assert code == 2
        assert "65 exceeds the cap 64" in doc["diagnostics"][0]


def test_output_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"rows": [[3, 1], [-4, 2]]})
    _, _, first = run_cli(capsys, "snf", path)
    _, _, second = run_cli(capsys, "snf", path)
    assert first == second


def test_abelianize_trefoil(tmp_path, capsys):
    path = write_json(
        tmp_path, "p.json", {"generators": 2, "relators": [[1, 1, -2, -2, -2]]}
    )
    code, doc, _ = run_cli(capsys, "abelianize", path)
    assert code == 0
    assert doc["payload"] == {"free_rank": 1, "torsion": []}


def test_abelianize_with_galois(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"generators": 1, "relators": [[1] * 5]})
    code, doc, _ = run_cli(capsys, "abelianize", path, "--galois")
    assert code == 0
    galois = doc["payload"]["galois"]
    assert galois["torsion_aut_order"] == 4
    assert galois["is_abelian"] is True


def test_abelianize_missing_generators_key(tmp_path, capsys):
    path = write_json(tmp_path, "p.json", {"relators": [[1]]})
    code, doc, _ = run_cli(capsys, "abelianize", path)
    assert code == 1
    assert "generators" in doc["diagnostics"][0]


def test_abelianize_galois_noncyclic_past_bruteforce_order(tmp_path, capsys):
    path = write_json(
        tmp_path, "p.json", {"generators": 2, "relators": [[1] * 256, [2] * 256]}
    )
    code, doc, _ = run_cli(capsys, "abelianize", path, "--galois")
    assert code == 0
    assert doc["payload"]["torsion"] == [256, 256]
    galois = doc["payload"]["galois"]
    assert galois["torsion_aut_order"] == 1_610_612_736  # |GL_2(Z/256)|
    assert galois["is_abelian"] is False


def test_abelianize_galois_cap(tmp_path):
    # H_1 is cyclic of 29-digit order with a cofactor past 2^40; run in a
    # subprocess so that unbounded factoring fails the test instead of hanging it
    path = write_json(tmp_path, "p.json", unfactorable_presentation())
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "forms4d.cli", "abelianize", path, "--galois"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    diagnostic = json.loads(proc.stdout)["diagnostics"][0]
    assert "23919106731586021 > 2^40" in diagnostic and "cap 2^20" in diagnostic


def test_abelianize_shape_cap(tmp_path, capsys):
    for doc in ({"generators": 65, "relators": [[1]]}, {"generators": 1, "relators": [[1]] * 65}):
        path = write_json(tmp_path, "p.json", doc)
        code, out, _ = run_cli(capsys, "abelianize", path)
        assert code == 2
        assert "65 exceeds the cap 64" in out["diagnostics"][0]


def test_trace_form_prime(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "7")
    assert code == 0
    payload = doc["payload"]
    assert payload["invariants"]["signature_value"] == 7
    assert payload["gram"] == [[int(i == j) for j in range(7)] for i in range(7)]


def test_trace_form_two_power(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--two-power", "4")
    assert code == 0
    payload = doc["payload"]
    assert payload["invariants"]["rank"] == 32
    assert payload["signature_claimed"] == 16
    assert payload["signature_computed"] == 14
    assert payload["signature_discrepancy"] is True
    assert doc["diagnostics"]


def test_trace_form_conductor(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--conductor", "4")
    assert code == 0
    assert doc["payload"]["gram"] == [[2, 0], [0, -2]]


def test_trace_form_conductor_cap(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--conductor", "100")
    assert code == 2
    assert "64" in doc["diagnostics"][0]


def test_trace_form_prime_and_two_power_caps(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "65")
    assert code == 2
    assert "prime 65 exceeds the cap 64" in doc["diagnostics"][0]
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "10000000000000000000000")
    assert code == 2
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "64")
    assert code == 1  # at the cap, but not prime
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "61")
    assert code == 0 and doc["payload"]["invariants"]["rank"] == 61

    code, doc, _ = run_cli(capsys, "trace-form", "--two-power", "8")
    assert code == 2
    assert "two-power exponent 8 exceeds the cap 7" in doc["diagnostics"][0]
    code, doc, _ = run_cli(capsys, "trace-form", "--two-power", "7")
    assert code == 0 and doc["payload"]["invariants"]["rank"] == 256


def test_trace_form_bad_parameters(capsys):
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "4")
    assert code == 1
    code, doc, _ = run_cli(capsys, "trace-form", "--two-power", "3")
    assert code == 1
    code, doc, _ = run_cli(capsys, "trace-form", "--prime", "3", "--conductor", "4")
    assert code == 1


def test_group_ring_decompose(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", {"abelian_invariants": [3]})
    code, doc, _ = run_cli(capsys, "group-ring", path, "--decompose")
    assert code == 0
    decomposition = doc["payload"]["decomposition"]
    assert decomposition["census"] == [[1, 1], [3, 1]]
    assert decomposition["primary_fields"] == [[3, 1]]
    assert decomposition["notes"]


def test_group_ring_s3_frobenius(tmp_path, capsys):
    table = [list(row) for row in symmetric_group_s3().table]
    path = write_json(tmp_path, "g.json", {"cayley_table": table})
    code, doc, _ = run_cli(capsys, "group-ring", path, "--frobenius")
    assert code == 0
    frob = doc["payload"]["frobenius"]
    assert frob["symmetric"] is True
    assert frob["commutative"] is False


def test_group_ring_aut(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", {"abelian_invariants": [3, 5]})
    code, doc, _ = run_cli(capsys, "group-ring", path, "--aut")
    assert code == 0
    assert doc["payload"]["aut"]["torsion_aut_order"] == 8
    assert doc["payload"]["aut"]["is_abelian"] is True


def test_group_ring_nonabelian_decompose_fails(tmp_path, capsys):
    table = [list(row) for row in symmetric_group_s3().table]
    path = write_json(tmp_path, "g.json", {"cayley_table": table})
    code, doc, _ = run_cli(capsys, "group-ring", path, "--decompose")
    assert code == 1
    assert "abelian" in doc["diagnostics"][0]


def test_group_ring_order_cap(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", {"abelian_invariants": [513]})
    code, doc, _ = run_cli(capsys, "group-ring", path)
    assert code == 2
    assert "512" in doc["diagnostics"][0]


def test_group_ring_long_invariant_list_exits_two(tmp_path, capsys):
    # the cap is checked on partial products, so no 10^6-bit order is ever formed
    path = write_json(tmp_path, "g.json", {"abelian_invariants": [2] * 10**6})
    start = time.perf_counter()
    code, doc, _ = run_cli(capsys, "group-ring", path)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert doc["diagnostics"] == [
        "group order exceeds the cap 512: the first 10 of 1000000 invariants "
        "already multiply to 1024"
    ]


def test_analyze_form_fixtures(capsys):
    code, doc, _ = run_cli(capsys, "analyze-form", "--fixture", "e8")
    assert code == 0
    assert doc["payload"]["rokhlin_violation"] is True

    code, doc, _ = run_cli(capsys, "analyze-form", "--fixture", "In:8")
    assert code == 0
    assert doc["payload"]["smooth_obstructed"] is False

    code, doc, _ = run_cli(capsys, "analyze-form", "--fixture", "e8e8")
    assert code == 0
    assert doc["payload"]["donaldson_violation"] is True
    assert doc["payload"]["rokhlin_violation"] is False


def test_analyze_form_from_file(tmp_path, capsys):
    path = write_json(tmp_path, "gram.json", {"rows": [[0, 1], [1, 0]]})
    code, doc, _ = run_cli(capsys, "analyze-form", path)
    assert code == 0
    assert doc["payload"]["parity"] == "even"
    assert doc["payload"]["signature_value"] == 0


def test_analyze_form_non_unimodular(tmp_path, capsys):
    path = write_json(tmp_path, "gram.json", {"rows": [[2, 0], [0, 2]]})
    code, doc, _ = run_cli(capsys, "analyze-form", path)
    assert code == 1
    assert "determinant 4" in doc["diagnostics"][0]


def test_analyze_form_node_cap(tmp_path):
    # I_2 in a badly skewed basis: the enumeration would scan about 2*10^9
    # values of the last coordinate; run in a subprocess so that a hang fails
    # the test instead of stalling it
    n = 10**9
    path = write_json(tmp_path, "gram.json", {"rows": [[n * n + 1, n], [n, 1]]})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "forms4d.cli", "analyze-form", path],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert "node cap" in json.loads(proc.stdout)["diagnostics"][0]


def test_analyze_form_unknown_fixture(capsys):
    code, doc, _ = run_cli(capsys, "analyze-form", "--fixture", "k3")
    assert code == 1


def test_analyze_form_fixture_rank_cap(capsys):
    code, doc, _ = run_cli(capsys, "analyze-form", "--fixture", "In:100000")
    assert code == 2
    assert "64" in doc["diagnostics"][0]


def test_analyze_form_gram_shape_cap(tmp_path, capsys):
    rows = [[int(i == j) for j in range(65)] for i in range(65)]
    path = write_json(tmp_path, "g.json", {"rows": rows})
    code, doc, _ = run_cli(capsys, "analyze-form", path)
    assert code == 2
    assert "65 exceeds the cap 64" in doc["diagnostics"][0]


def test_analyze_form_witt_expressions(capsys):
    code, doc, _ = run_cli(capsys, "analyze-form", "--witt", "2^3<1>")
    assert code == 0
    assert doc["payload"]["rank"] == 8
    assert doc["payload"]["smooth_obstructed"] is False

    code, doc, _ = run_cli(capsys, "analyze-form", "--witt", "H")
    assert code == 0
    assert doc["payload"]["parity"] == "even"
    assert doc["payload"]["signature_value"] == 0

    code, doc, _ = run_cli(capsys, "analyze-form", "--witt", "nonsense")
    assert code == 1


def test_analyze_form_witt_rank_cap(capsys):
    for text in ("2^6<1>", "64<1>", "32xH", "60<-1> + 2^2<1>"):
        code, doc, _ = run_cli(capsys, "analyze-form", "--witt", text)
        assert code == 0, text
        assert doc["payload"]["rank"] == 64
    for text in ("65<1>", "32xH + <1>", "63<1> + 2^1<1>"):
        code, doc, _ = run_cli(capsys, "analyze-form", "--witt", text)
        assert code == 2, text
        assert "Witt expression rank 65 exceeds the cap 64" in doc["diagnostics"][0]
    start = time.perf_counter()
    for n in (7, 10**6):
        code, doc, _ = run_cli(capsys, "analyze-form", "--witt", f"<1> + 2^{n}<1>")
        assert code == 2
        assert f"2^{n}<1>" in doc["diagnostics"][0] and "cap 64" in doc["diagnostics"][0]
    assert time.perf_counter() - start < 1


def test_runs_without_mpmath():
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import forms4d\n"
        "from forms4d import cli\n"
        "sys.exit(cli.main(['trace-form', '--conductor', '12']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_usage_errors_exit_one(capsys):
    code, doc, _ = run_cli(capsys, "trace-form")
    assert code == 1
    code, doc, _ = run_cli(capsys, "analyze-form")
    assert code == 1


def test_help_lists_every_command():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "forms4d.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for command in ("snf", "abelianize", "trace-form", "group-ring", "analyze-form"):
        assert command in proc.stdout


def test_group_ring_aut_rejects_nonabelian(tmp_path, capsys):
    table = [list(row) for row in symmetric_group_s3().table]
    path = write_json(tmp_path, "g.json", {"cayley_table": table})
    code, doc, _ = run_cli(capsys, "group-ring", path, "--aut")
    assert code == 1
    assert "abelian" in doc["diagnostics"][0]


SMALL = st.integers(-9, 9)


@st.composite
def symmetric_rows(draw):
    n = draw(st.integers(1, 5))
    upper = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    return {"rows": [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]}


JSON_DOCS = st.one_of(
    st.recursive(
        st.none() | st.booleans() | SMALL | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(
            st.sampled_from(["rows", "generators", "relators", "abelian_invariants", "cayley_table"]),
            inner,
            max_size=3,
        ),
        max_leaves=16,
    ),
    st.builds(lambda rows: {"rows": rows}, st.lists(st.lists(SMALL, max_size=5), max_size=5)),
    symmetric_rows(),
    st.builds(
        lambda gens, rels: {"generators": gens, "relators": rels},
        st.integers(-1, 5),
        st.lists(st.lists(st.integers(-6, 6), max_size=6), max_size=5),
    ),
    st.builds(lambda invs: {"abelian_invariants": invs}, st.lists(st.integers(-1, 8), max_size=2)),
    st.builds(
        lambda table: {"cayley_table": table},
        st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4),
    ),
)
WITT_TERMS = ["3<1>", "<-1>", "H", "2xH", "2^3<1>", "2^6<1>", "2^7<1>", "3<2>", ""]
GROUP_RING_FLAGS = ["--frobenius", "--decompose", "--aut"]
ARGVS = st.one_of(
    st.tuples(st.just("snf"), st.just("FILE")),
    st.tuples(st.just("abelianize"), st.just("FILE"), st.sampled_from(["--galois", "FILE"])),
    st.tuples(
        st.just("trace-form"),
        st.sampled_from(["--prime", "--two-power", "--conductor"]),
        st.integers(-5, 70).map(str),
    ),
    st.lists(st.sampled_from(GROUP_RING_FLAGS), max_size=3).map(
        lambda flags: ("group-ring", "FILE", *flags)
    ),
    st.tuples(st.just("analyze-form"), st.just("FILE")),
    st.tuples(
        st.just("analyze-form"),
        st.just("--fixture"),
        st.sampled_from(["e8", "e8e8", "k3", "In:x", "In:-1"]) | st.integers(0, 70).map("In:{}".format),
    ),
    st.tuples(
        st.just("analyze-form"),
        st.just("--witt"),
        st.lists(st.sampled_from(WITT_TERMS), min_size=1, max_size=4).map(" + ".join),
    ),
    # anything at all: usage errors, unknown commands, missing files
    st.lists(
        st.sampled_from(["snf", "trace-form", "FILE", "missing.json", "--aut", "--prime", "7", "x", ""]),
        max_size=4,
    ).map(tuple),
)


@settings(deadline=None, max_examples=150)
@given(ARGVS, JSON_DOCS)
def test_cli_fuzz_exits_cleanly(tokens, doc):
    # any argv and input file within the caps ends in exit 0, 1 or 2 with one
    # JSON document, never an escaped exception
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = [path if t == "FILE" else t for t in tokens]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2)
    assert json.loads(out.getvalue())["status"] == ("ok" if code == 0 else "error")
