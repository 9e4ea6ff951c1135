"""Command-line interface: golden outputs, exit codes, JSON round trips."""

import json
from functools import lru_cache

import pytest

from surfmoduli import catalog
from surfmoduli.beauville import search
from surfmoduli.cli import main
from surfmoduli.groups import Permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_beauville_search_a5_json(self, capsys):
        code, out, _ = run(capsys, "beauville", "search", "--group", "A5", "--json")
        assert code == 0
        assert (
            out.strip()
            == '{"group":"A5","order":60,"beauville":false,"structures_found":0}'
        )

    def test_abc_invariants_json(self, capsys):
        code, out, _ = run(capsys, "abc", "invariants", "3", "3", "3", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chi"] == 34 and doc["ksq"] == 128 and doc["ksq_paper"] == 16

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("2", "3", "5"),
             '{"a":2,"b":3,"c":5,"d":3,"chi":41,"ksq":160,"ksq_paper":20,'
             '"e":332,"tau":-168,"below_standard_bound":true}'),
            (("3", "4", "5", "6"),
             '{"a":3,"b":4,"c":5,"d":6,"chi":90,"ksq":384,"ksq_paper":48,'
             '"e":696,"tau":-336}'),
        ],
    )
    def test_abc_invariants_json_is_pinned(self, capsys, argv, text):
        code, out, _ = run(capsys, "abc", "invariants", *argv, "--json")
        assert code == 0 and out == text + "\n"

    def test_abc_nondef_names_failing_clause(self, capsys):
        code, out, _ = run(capsys, "abc", "nondef", "14", "8", "6", "3")
        assert code == 0
        assert "verdict: no" in out
        assert "(I)" in out and "FAIL" in out

    def test_hyperell_iso(self, capsys):
        code, out, _ = run(
            capsys,
            "hyperell", "iso",
            "--set1", "0,1,inf,3",
            "--set2", "0,1,inf,4",
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {"equivalent": False, "map": None}

    def test_braid_orbit(self, capsys):
        code, out, _ = run(
            capsys, "braid", "orbit", "--strands", "3", "[[1],[2]]",
            "--budget", "100", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit_size"] == 3 and doc["exhausted"] is True


@lru_cache(maxsize=None)
def _listing(name, first):
    """The --structures document of ``name``, built from search()'s records."""
    G = catalog.builtin(name)
    structures = search(G, stop_at_first=first)
    head = {"group": name, "order": G.order, "beauville": bool(structures),
            "structures_found": len(structures)}
    return head, [s.as_dict() for s in structures]


def _listing_text(name, first, as_json):
    head, records = _listing(name, first)
    if as_json:
        return json.dumps({**head, "structures": records}, separators=(",", ":")) + "\n"
    yes_no = {True: "yes", False: "no"}
    rows = [f"{k}: {yes_no[v] if isinstance(v, bool) else v}" for k, v in head.items()]
    rows += [
        f"  t1={d['t1']['type']} genus {d['t1']['genus']}"
        f" / t2={d['t2']['type']} genus {d['t2']['genus']}"
        f" chi={d['invariants']['chi']}"
        f" unmarked_equal={yes_no[d['triples_unmarked_equivalent']]}"
        for d in records
    ]
    return "\n".join(rows) + "\n"


class TestStructureListing:
    @pytest.mark.parametrize(
        "name, first",
        [("S5", False), ("PSL2_7", False), ("PSL2_7", True), ("EA5x5", False)],
    )
    @pytest.mark.parametrize("as_json", [True, False])
    def test_prints_the_records_of_search(self, capsys, name, first, as_json):
        argv = ["beauville", "search", "--group", name, "--structures"]
        argv += ["--first"] * first + ["--json"] * as_json
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == _listing_text(name, first, as_json)

    def test_out_file_holds_the_same_document(self, capsys, tmp_path):
        target = tmp_path / "listing.json"
        code, out, _ = run(capsys, "beauville", "search", "--group", "EA5x5",
                           "--structures", "--json", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == _listing_text("EA5x5", False, True)


class TestJsonDiscipline:
    @pytest.mark.parametrize(
        "argv",
        [
            ("group", "info", "--group", "S4"),
            ("triangles", "enumerate", "--group", "C2"),
            ("beauville", "search", "--group", "EA5x5", "--first"),
            ("isogenous", "invariants", "6", "6", "25"),
            ("abc", "invariants", "3", "4", "5"),
            ("abc", "diffeo", "2", "3", "5", "5", "3", "2"),
            ("abc", "nondef", "14", "8", "6", "2"),
            ("abc", "classify", "--chi", "34", "--ksq", "128", "--bound", "6"),
            ("hyperell", "branch", "--genus", "3", "--param=-1/2"),
            ("braid", "equal", "--strands", "3", "[1,2,1]", "[2,1,2]"),
            ("braid", "product", "--strands", "3", "[[1],[2]]"),
        ],
    )
    def test_round_trip_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_no_floats_in_integer_fields(self, capsys):
        _, out, _ = run(capsys, "abc", "invariants", "3", "3", "3", "3", "--json")
        doc = json.loads(out)
        for key in ("chi", "ksq", "ksq_paper", "e", "tau"):
            assert isinstance(doc[key], int)

    def test_human_and_json_report_same_numbers(self, capsys):
        _, human, _ = run(capsys, "isogenous", "invariants", "6", "6", "25")
        _, machine, _ = run(capsys, "isogenous", "invariants", "6", "6", "25", "--json")
        doc = json.loads(machine)
        lines = dict(
            line.split(": ", 1) for line in human.strip().splitlines()
        )
        for key in ("chi", "ksq", "e", "tau"):
            assert int(lines[key]) == doc[key]

    def test_scan_json_and_csv_agree(self, capsys):
        _, js, _ = run(capsys, "beauville", "scan", "--groups", "C5", "EA5x5",
                       "--json")
        doc = json.loads(js)
        _, csv_text, _ = run(capsys, "beauville", "scan", "--groups", "C5",
                             "EA5x5", "--csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "group,order,beauville,structures_found,elapsed_ms"
        for row, line in zip(doc, lines[1:]):
            cells = line.split(",")
            assert cells[0] == row["group"]
            assert int(cells[1]) == row["order"]
            assert cells[2] == str(row["beauville"]).lower()
            assert int(cells[3]) == row["structures_found"]


class TestExitCodes:
    def test_domain_error_is_1(self, capsys):
        code, _, err = run(capsys, "hyperell", "branch", "--genus", "3",
                           "--param", "2")
        assert code == 1
        assert err.strip().startswith("error:")

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["beauville", "search"])  # missing --group
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["abc", "nondef", "14", "8", "6", "2", "--bogus"])
        assert exc.value.code == 2


class TestInputs:
    def test_group_file_ingestion(self, capsys, tmp_path):
        path = tmp_path / "c7.grp"
        path.write_text("# cyclic of order 7\ndegree 7\n2 3 4 5 6 7 1\n")
        code, out, _ = run(capsys, "group", "info", "--group", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 7 and doc["simple"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "abc", "invariants", "3", "3", "3", "3",
                           "--json", "--out", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["chi"] == 34

    def test_progress_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "beauville", "search", "--group", "C5",
                          "--json")
        assert "searching" in err
        assert "searching" not in out

    def test_retired_flags_are_usage_errors(self, capsys):
        for flag, value in (("--threads", "4"), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["abc", "invariants", "3", "3", "3", "--json", flag, value])
            assert exc.value.code == 2

    def test_unwritable_out_is_a_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "abc", "invariants", "3", "3", "3", "3",
                             "--json", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write --out ")
        assert len(err.strip().splitlines()) == 1

    def test_scan_resolves_references_as_it_goes(self, capsys):
        code, out, err = run(capsys, "beauville", "scan", "--groups", "C5", "C6",
                             "NOPE", "S3")
        assert code == 1 and out == ""
        lines = err.strip().splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["scanned C5", "scanned C6"]
        assert lines[2:] == ["error: 'NOPE' is neither a builtin group name nor a file"]

    def test_scan_csv_goes_through_the_same_writer(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "beauville", "scan", "--groups", "C5",
                           "--csv", "--out", str(target))
        assert code == 0 and out == ""
        lines = target.read_text().splitlines()
        assert lines[0] == "group,order,beauville,structures_found,elapsed_ms"
        assert lines[1].startswith("C5,5,false,0,")
        code, out, err = run(capsys, "beauville", "scan", "--groups", "C5",
                             "--csv", "--out", str(tmp_path / "no" / "x.csv"))
        assert code == 1 and out == ""
        assert err.strip().splitlines()[-1].startswith("error: cannot write")


class TestModBranchPermutation:
    """``triangles enumerate --mod-branch-permutation`` keeps the first
    triple of each orbit under reordering the branch points, in
    enumeration order."""

    @staticmethod
    def orbit_key(t):
        # the rotations of (a, b, c) and their reversals (z^-1, y^-1, x^-1)
        a, b = Permutation(t["a"]), Permutation(t["b"])
        c = (a * b).inverse()
        assert list(c.images) == t["c"]
        rotations = [(a, b, c), (b, c, a), (c, a, b)]
        reversals = [(z.inverse(), y.inverse(), x.inverse()) for x, y, z in rotations]
        return min(tuple(x.images for x in u) for u in rotations + reversals)

    @pytest.mark.parametrize("argv", [
        ["--group", "S4"],
        ["--group", "A5"],
        ["--group", "PSL2_7", "--hyperbolic-only"],
    ])
    def test_keeps_the_first_triple_of_each_orbit(self, capsys, argv):
        code, out, _ = run(capsys, "triangles", "enumerate", *argv, "--json")
        assert code == 0
        every = json.loads(out)["triples"]
        seen, expected = set(), []
        for t in every:
            key = self.orbit_key(t)
            if key not in seen:
                seen.add(key)
                expected.append(t)
        assert len(every) > len(expected) > 0
        code, out, _ = run(capsys, "triangles", "enumerate", *argv,
                           "--mod-branch-permutation", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(expected)
        assert doc["triples"] == expected


class TestBraidInputShape:
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (("equal", "--strands", "3", "{}", "[]"), "w1"),
            (("equal", "--strands", "3", "[1.5]", "[1]"), "w1"),
            (("equal", "--strands", "3", "[1]", "[true]"), "w2"),
            (("equal", "--strands", "3", '"1"', "[1]"), "w1"),
            (("equal", "--strands", "3", "[1]", "[[1]]"), "w2"),
            (("equal", "--strands", "3", "[1", "[1]"), "w1"),
            (("product", "--strands", "3", "5"), "factors"),
            (("orbit", "--strands", "3", "[1]"), "factors"),
        ],
        ids=["object", "float", "bool", "string", "nested-word", "not-json",
             "int-factors", "word-as-factors"],
    )
    def test_malformed_json_is_a_domain_error(self, capsys, argv, bad):
        code, out, err = run(capsys, "braid", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad} must be a JSON list of ")
        assert len(err.strip().splitlines()) == 1

    def test_well_formed_input_still_accepted(self, capsys):
        code, out, _ = run(capsys, "braid", "equal", "--strands", "3",
                           "[]", "[1,-1]", "--json")
        assert code == 0 and json.loads(out)["equal"] is True


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("braid", "equal", "--strands", "1000001", "[1]", "[1]"),
             "B_1000001 exceeds STRAND_CAP = 1000000 strands;"
             " set surfmoduli.braids.STRAND_CAP = N to raise it"),
            (("braid", "orbit", "--strands", "1000001", "[[1],[2]]"),
             "B_1000001 exceeds STRAND_CAP = 1000000 strands;"
             " set surfmoduli.braids.STRAND_CAP = N to raise it"),
            (("hyperell", "branch", "--genus", "1000001", "--param", "1/2"),
             "genus 1000001 exceeds GENUS_CAP = 1000000;"
             " set surfmoduli.moebius.GENUS_CAP = N to raise it"),
        ],
        ids=["braid-equal", "braid-orbit", "hyperell-branch"],
    )
    def test_a_size_cap_is_one_line_naming_it(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestNumberInputs:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("hyperell", "iso", "--set1", "0,1,2/0", "--set2", "0,1,2"),
             "--set1: '2/0' is not a rational or inf"),
            (("hyperell", "iso", "--set1", "0,1,2", "--set2", "0,1,x"),
             "--set2: 'x' is not a rational or inf"),
            (("hyperell", "branch", "--genus", "3", "--param", "1/0"),
             "--param: '1/0' is not a rational"),
            (("hyperell", "branch", "--genus", "3", "--param", "q"),
             "--param: 'q' is not a rational"),
            (("triangles", "enumerate", "--group", "S3", "--type", "a,b,c"),
             "--type: 'a' is not an integer"),
            (("triangles", "enumerate", "--group", "S3", "--type", "2,3,1/2"),
             "--type: '1/2' is not an integer"),
        ],
        ids=["set1-zero-denominator", "set2-letter", "param-zero-denominator",
             "param-letter", "type-letter", "type-fraction"],
    )
    def test_bad_number_names_its_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestGroupReferences:
    @pytest.mark.parametrize("name", ["C150000", "D60000", "EA1000x1000", "S1000000",
                                      "C400xC400", "PSL2_59", "PSL2_2305843009213693951"])
    @pytest.mark.usefixtures("no_large_closure")
    def test_group_above_the_order_bound_fails_in_one_line(self, capsys, name):
        code, out, err = run(capsys, "group", "info", "--group", name)
        assert code == 1 and out == ""
        assert err == (
            f"error: {name}: order exceeds ORDER_BOUND = 100000;"
            " set surfmoduli.groups.ORDER_BOUND = N to raise it\n"
        )

    @pytest.mark.parametrize("ref", ["x" * 300, "C" + "1" * 5000],
                             ids=["x300", "C5000"])
    def test_overlong_reference_is_not_a_file(self, capsys, ref):
        code, out, err = run(capsys, "group", "info", "--group", ref)
        assert code == 1 and out == ""
        assert err == f"error: {ref!r} is neither a builtin group name nor a file\n"

    @pytest.mark.parametrize("name, reason", [
        ("PSL2_35", "p must be a prime, got 35"),
        ("D2", "dihedral groups need n >= 3 here"),
        ("C0", "cyclic group order must be positive"),
        ("A2", "alternating groups need n >= 3 here"),
        ("EA2x3", "only square elementary abelians EA<p>x<p> are builtin"),
        ("C2xD2", "dihedral groups need n >= 3 here"),
    ])
    def test_refused_builtin_name_gives_the_reason(self, capsys, monkeypatch, tmp_path,
                                                   name, reason):
        monkeypatch.chdir(tmp_path)  # no file of that name
        code, out, err = run(capsys, "group", "info", "--group", name)
        assert code == 1 and out == ""
        assert err == f"error: {name!r} is not a file and not a valid builtin group: {reason}\n"
        # a file of that name is read instead
        (tmp_path / name).write_text("degree 3\n2 3 1\n")
        code, out, err = run(capsys, "group", "info", "--group", name, "--json")
        assert code == 0 and err == "" and json.loads(out)["order"] == 3

    def test_composite_elementary_abelian_points_to_the_product(
        self, capsys, monkeypatch, tmp_path
    ):
        # (Z/6)^2 is not elementary abelian; EA<p>x<p> was C6xC6 under that name
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "group", "info", "--group", "EA6x6")
        assert code == 1 and out == ""
        assert err == (
            "error: 'EA6x6' is not a file and not a valid builtin group:"
            " p must be a prime, got 6; use C6xC6 for (Z/6)^2\n"
        )
        for name, order in (("EA2x2", 4), ("EA5x5", 25), ("C6xC6", 36)):
            code, out, err = run(capsys, "group", "info", "--group", name, "--json")
            assert code == 0 and err == "" and json.loads(out)["order"] == order

    @pytest.mark.parametrize("name", ["D2xfoo", "C2x", "PSL2_x"])
    def test_name_that_does_not_parse_is_neither(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "group", "info", "--group", name)
        assert code == 1 and out == ""
        assert err == f"error: {name!r} is neither a builtin group name nor a file\n"

    def test_undecodable_file_is_named(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_bytes(b"\xff\n")
        code, out, err = run(capsys, "group", "info", "--group", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert len(err.strip().splitlines()) == 1
