import hashlib
import json
from fractions import Fraction

import pytest

from ribboncalc import checks, cli, clusters, combclasses, enumeration, plforms
from ribboncalc.ribbon import MarkedMetricGraph, graph_from_json, graph_to_json


def run(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEuler:
    def test_text(self, capsys):
        assert run(capsys, "euler", "--genus", "2", "--n", "1") == (0, "1/120\n", "")

    def test_json(self, capsys):
        code, out, err = run(capsys, "euler", "--genus", "2", "--n", "1", "--json")
        assert (code, err) == (0, "")
        assert out == '{"euler": "1/120", "genus": 2, "n": 1}\n'
        assert json.loads(out) == {"euler": "1/120", "genus": 2, "n": 1}

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_jobs_is_ignored(self, capsys, extra):
        base = run(capsys, "euler", "--genus", "1", "--n", "2", *extra)
        assert run(capsys, "euler", "--genus", "1", "--n", "2", "--jobs", "2", *extra) == base

    def test_genus_three(self, capsys):
        assert run(capsys, "euler", "--genus", "3", "--n", "1") == (0, "-1/252\n", "")

    def test_inconsistent_profile(self, capsys):
        code, out, err = run(capsys, "euler", "--genus", "0", "--n", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InconsistentProfile",
            "message": "(g, n) = (0, 2) has no cells",
        }

    def test_too_large(self, capsys):
        code, out, err = run(capsys, "euler", "--genus", "3", "--n", "2")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "TooLarge"

    @pytest.mark.parametrize(
        "argv",
        [
            ["euler", "--genus", "two", "--n", "1"],
            ["euler", "--genus", "1"],
            ["euler", "--genus", "1", "--n", "1", "--bogus"],
        ],
    )
    def test_malformed_flags(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage error: ")

    def test_manifest_digest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out, _ = run(capsys, "euler", "--genus", "1", "--n", "1", "--manifest", str(path))
        assert (code, out) == (0, "-1/12\n")
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "euler"
        assert manifest["digest"] == cli.build_manifest("euler", {}, "-1/12").digest


class TestEnumerate:
    def test_profile_that_does_not_fit_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--genus", "0", "--labels", "p,q,r", "--profile", "0,3"
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InconsistentProfile",
            "message": "profile weight 9 is not 4g-4+2n = 2 for (g, n) = (0, 3)",
        }

    def test_fitting_profile_lists_its_cells(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--genus", "0", "--labels", "p,q,r", "--profile", "2"
        )
        assert (code, err) == (0, "")
        cells = [json.loads(line) for line in out.splitlines()]
        assert len(cells) == 4
        assert all(cell["sides"] == 6 for cell in cells)

    def test_json_digest(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--genus", "0", "--labels", "p,q,r,s", "--profile", "4", "--json"
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 64
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c7eca1f51488e7ed7407fe18c56ffa93722865a7a9200f5a049100a8e88dfbfd"
        )

    # captured from one full canonical form per labelling; labelling through
    # the least-code roots must not change a byte
    MARKED = {
        ("--genus", "2", "--labels", "p,q", "--profile", "3,1", "--vertex-mark", "q=5"): (
            19,
            "3e5d670c81d07df29d1ee1722027247ae765f6452989eeaccdb16177a2e3a5d8",
        ),
        (
            "--genus", "2", "--labels", "p,q,r", "--profile", "0,2",
            "--vertex-mark", "q=5", "--vertex-mark", "r=5",
        ): (9, "4f5a666572d72de9f1a9a45748ea51015e301eecdf13cd61e4b97bbcb09dfebe"),
        ("--genus", "1", "--labels", "p,q,r", "--profile", "6"): (
            236,
            "7bf5fd0d426145819d4ecc49e5e64ee6e874200d4656bd525e9b14775e083713",
        ),
    }

    @pytest.mark.parametrize("argv", list(MARKED), ids=" ".join)
    def test_json_goldens(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv, "--json")
        assert (code, err) == (0, "")
        lines, digest = self.MARKED[argv]
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    ARGV = ("enumerate", "--genus", "0", "--labels", "p,q,r,s", "--profile", "4", "--json")

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        _, stdout, _ = run(capsys, *self.ARGV)
        path = tmp_path / "cells.jsonl"
        assert run(capsys, *self.ARGV, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == stdout.encode()

    def test_manifest_records_the_output_digest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out, err = run(capsys, *self.ARGV, "--manifest", str(path))
        assert (code, err) == (0, "")
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "enumerate"
        assert manifest["parameters"]["profile"] == "4"
        assert manifest["digest"] == hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    def test_unwritable_file_is_a_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "cells.json"
        code, _, err = run(capsys, *self.ARGV, flag, str(path))
        assert code == 64
        assert err.startswith(f"usage error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_genus_two_top_cells(self, capsys):
        # 3,061,800 labelled pairings / (3^6 6!) = 35/6
        code, out, err = run(
            capsys, "enumerate", "--genus", "2", "--labels", "p", "--profile", "6", "--json"
        )
        assert (code, err) == (0, "")
        cells = [json.loads(line) for line in out.splitlines()]
        assert len(cells) == 9
        assert sum(Fraction(1, cell["aut"]) for cell in cells) == Fraction(35, 6)


class TestStrata:
    ARGV = ("strata", "--genus", "1", "--labels", "p,q", "--hole", "p")

    def test_text(self, capsys):
        assert run(capsys, *self.ARGV) == (
            0,
            "cylinder: 3\ndisk: 16\nsurface: 24\ncells: 43\n",
            "",
        )

    @pytest.mark.parametrize(
        "genus,labels,hole,text",
        [
            (0, "p,q,r,s", "p", "cylinder: 36\ndisk: 227\nsurface: 64\ncells: 327\n"),
            (1, "p,q,r", "q", "cylinder: 306\ndisk: 2212\nsurface: 1700\ncells: 4218\n"),
        ],
        ids=["genus0-four-holes", "genus1-three-holes"],
    )
    def test_text_goldens(self, capsys, genus, labels, hole, text):
        argv = ("strata", "--genus", str(genus), "--labels", labels, "--hole", hole)
        assert run(capsys, *argv) == (0, text, "")

    def test_manifest_records_the_output_digest(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, out, err = run(capsys, *self.ARGV, "--json", "--manifest", str(path))
        assert (code, err) == (0, "")
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "strata"
        assert manifest["parameters"]["hole"] == "p"
        assert manifest["digest"] == hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()

    def test_json(self, capsys):
        code, out, err = run(capsys, *self.ARGV, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "genus": 1,
            "labels": ["p", "q"],
            "hole": "p",
            "census": {"cylinder": 3, "disk": 16, "surface": 24},
            "excluded_closed_complement": 0,
            "cells": 43,
        }


class TestClusterCount:
    def test_text(self, capsys):
        assert run(capsys, "cluster-count", "--rho", "1,0,0") == (
            0,
            "3-way agreement: 35\n",
            "",
        )

    @pytest.mark.parametrize(
        "rho,count", [("0", 1), ("3", 1), ("0,0", 3), ("2,1", 9), ("1,1,1", 99)]
    )
    def test_brute(self, capsys, rho, count):
        assert run(capsys, "cluster-count", "--method", "brute", "--rho", rho) == (
            0,
            f"{count}\n",
            "",
        )

    def test_json(self, capsys):
        code, out, err = run(capsys, "cluster-count", "--rho", "1,0,0", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "rho": [1, 0, 0],
            "counts": {"brute": 35, "recurrence": 35, "closed": 35},
            "agree": True,
        }


    @pytest.mark.parametrize(
        "extra, out",
        [
            ([], "DISAGREEMENT: brute=35, closed=35, recurrence=36\n"),
            (
                ["--json"],
                '{"agree": false, "counts": {"brute": 35, "closed": 35, "recurrence": 36}, '
                '"rho": [1, 0, 0]}\n',
            ),
        ],
    )
    def test_a_disagreement_exits_one(self, capsys, monkeypatch, extra, out):
        monkeypatch.setattr(clusters, "count_by_recurrence", lambda rho: 36)
        assert run(capsys, "cluster-count", "--rho", "1,0,0", *extra) == (1, out, "")


class TestKappa:
    def test_fpoly_text(self, capsys):
        assert run(capsys, "fpoly", "--profile", "0,3") == (
            0,
            "288*k1^3 - 4176*k1*k2 + 20736*k3\n",
            "",
        )

    def test_fpoly_json(self, capsys):
        code, out, err = run(capsys, "fpoly", "--profile", "0,3", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload) == {"profile", "g", "n", "polynomial"}
        assert (payload["profile"], payload["g"], payload["n"]) == ([0, 3], 3, 1)
        assert payload["polynomial"][0] == {
            "coeff": "288/1",
            "monomial": [{"exp": 3, "index": 1, "kind": "kappa"}],
        }

    def test_fpoly_ten_vertices_finishes(self, capsys):
        code, out, err = run(capsys, "fpoly", "--profile", "0,10")
        assert (code, err) == (0, "")
        # the leading coefficient is 12^10/10!, by the product rule
        assert out.startswith("2985984/175*k1^10 - ")

    def test_two_vertex_check(self, capsys):
        code, out, err = run(capsys, "check", "two-vertex", "--a", "5", "--b", "6")
        assert (code, err) == (0, "")
        assert out.endswith("agree: yes\n")

    @pytest.mark.parametrize(
        "extra, out",
        [
            ([], "solved  = 72*k1^2 - 348*k2\nformula = 72*k1^2 - 348*k2\nagree: NO\n"),
            (
                ["--json"],
                '{"a": 1, "agree": false, "b": 1, "formula": [{"coeff": "72/1", '
                '"monomial": [{"exp": 2, "index": 1, "kind": "kappa"}]}, {"coeff": '
                '"-348/1", "monomial": [{"exp": 1, "index": 2, "kind": "kappa"}]}], '
                '"solved": [{"coeff": "72/1", "monomial": [{"exp": 2, "index": 1, '
                '"kind": "kappa"}]}, {"coeff": "-348/1", "monomial": [{"exp": 1, '
                '"index": 2, "kind": "kappa"}]}]}\n',
            ),
        ],
    )
    def test_a_two_vertex_disagreement_exits_one(self, capsys, monkeypatch, extra, out):
        real = combclasses.two_vertex_check
        monkeypatch.setattr(
            combclasses, "two_vertex_check", lambda a, b: real(a, b)._replace(agree=False)
        )
        argv = ("check", "two-vertex", "--a", "1", "--b", "1", *extra)
        assert run(capsys, *argv) == (1, out, "")

    def test_relation_keep(self, capsys):
        assert run(capsys, "relation", "--rho", "1,1", "--keep", "q1") == (
            0,
            "lhs = 144*k1*psi(q1)^2\nrhs = [locus_5,5;q1=1|3] + 7*[locus_7;q1=2|3]\n",
            "",
        )


class TestRelation:
    # text output and the sha256 of the --json output for each argument list
    GOLDEN = {
        ("--rho", "1,2,1,1"): (
            "lhs = 207360*k1^3*k2 + 622080*k1^2*k3 + 622080*k1*k2^2 + 1244160*k1*k4"
            " + 1036800*k2*k3 + 1244160*k5\n"
            "rhs = 429*[locus_11,5|5] + 3315*[locus_13|5] + 6*[locus_7,5,5,5|5]"
            " + 42*[locus_7,7,5|5] + 54*[locus_9,5,5|5] + 288*[locus_9,7|5]\n",
            "ef8c072060b64ff952e3084a51d7c6e715738f1e7608436959b7f7bbcfc3c6e7",
        ),
        ("--rho", "1,1,1,1,1", "--keep", "q1,q2"): (
            "lhs = 248832*k1^3*psi(q1)^2*psi(q2)^2 + 746496*k1*k2*psi(q1)^2*psi(q2)^2"
            " + 497664*k3*psi(q1)^2*psi(q2)^2\n"
            "rhs = 2145*[locus_11,5;q1=1,q2=4|7] + 2145*[locus_11,5;q1=4,q2=1|7]"
            " + 6*[locus_5,5,5,5,5;q1=1,q2=1|7] + 21*[locus_7,5,5,5;q1=1,q2=1|7]"
            " + 42*[locus_7,5,5,5;q1=1,q2=2|7] + 42*[locus_7,5,5,5;q1=2,q2=1|7]"
            " + 147*[locus_7,7,5;q1=1,q2=2|7] + 147*[locus_7,7,5;q1=2,q2=1|7]"
            " + 294*[locus_7,7,5;q1=2,q2=2|7] + 99*[locus_9,5,5;q1=1,q2=1|7]"
            " + 297*[locus_9,5,5;q1=1,q2=3|7] + 297*[locus_9,5,5;q1=3,q2=1|7]"
            " + 2079*[locus_9,7;q1=2,q2=3|7] + 2079*[locus_9,7;q1=3,q2=2|7]\n",
            "05d6f5784048782eaf7dbff82701770ae01e2e8f1bb8b8a0a857ae7b2f20bc97",
        ),
        ("--rho", "1,1,1", "--keep", "q1,q2,q3"): (
            "lhs = 1728*psi(q1)^2*psi(q2)^2*psi(q3)^2\n"
            "rhs = [locus_5,5,5;q1=1,q2=1,q3=1|6] + 99*[tails;q1.q2.q3=3|6]"
            " + 7*[tails;q1.q2=2/q3=1|6] + 7*[tails;q1.q3=2/q2=1|6]"
            " + 7*[tails;q1=1/q2.q3=2|6]\n",
            "53990a18119f693254bbf5410d43d280aa4fa72a681dce937f6a6fcf6a3f294c",
        ),
        ("--rho", "0,1", "--labels", "p,p2"): (
            "lhs = 24*k0*k1 + 24*k1\nrhs = 10*[locus_5|1]\n",
            "9e746fec9b0a1e17f6b9fb3b966f2e36752b04eb50c9c481a812a08223783c09",
        ),
    }

    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_text(self, capsys, argv):
        assert run(capsys, "relation", *argv) == (0, self.GOLDEN[argv][0], "")

    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_json(self, capsys, argv):
        code, out, err = run(capsys, "relation", *argv, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[argv][1]
        payload = json.loads(out)
        assert set(payload) == {"g", "holes", "rho", "keep", "lhs", "rhs"}

    def test_eight_kept_labels(self, capsys):
        # 4,140 tails and locus terms, one per set partition of q1..q8
        argv = ("relation", "--rho", "1,1,1,1,1,1,1,1", "--keep", "q1,q2,q3,q4,q5,q6,q7,q8")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "75d998a015a4f1aa3d729075e4a0f30223f91b94faab9948dcd6ab8b8973cc9d"
        )
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bde8ce8e306d7ae3c7664dc9696ca259421fb8cbeebf848c7198faea60a276ba"
        )

    def test_negative_order_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "relation", "--rho", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "DomainMismatch",
            "message": "negative marking orders are not supported",
        }

    def test_genus_too_small_is_inconsistent(self, capsys):
        code, out, err = run(capsys, "relation", "--rho", "1", "--g", "0")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "InconsistentProfile",
            "message": "profile needs 3 of 4g-4+2n = -2 plus a trivalent slot per order-0 label",
        }

    def test_keeping_an_unknown_label_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "relation", "--rho", "1,1", "--keep", "q9")
        assert (code, out) == (64, "")
        assert err == "usage error: --keep names 'q9'; labels are ['q1', 'q2']\n"


class TestFiber:
    def test_disk_text(self, capsys):
        assert run(capsys, "fiber", "--kind", "disk", "--r", "3") == (0, "1/1680\n", "")

    def test_cyl_text(self, capsys):
        # v1*v2*(r+1)!/(2r+2)! with r = 4
        assert run(capsys, "fiber", "--kind", "cyl", "--v1", "3", "--v2", "5") == (
            0,
            "1/2016\n",
            "",
        )

    def test_disk_json(self, capsys):
        code, out, err = run(capsys, "fiber", "--kind", "disk", "--r", "3", "--json")
        assert (code, err) == (0, "")
        assert out == '{"eps": "1/1", "kind": "disk", "r": 3, "value": "1/1680"}\n'

    def test_cyl_json(self, capsys):
        code, out, err = run(
            capsys, "fiber", "--kind", "cyl", "--v1", "3", "--v2", "5", "--json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "eps": "1/1",
            "kind": "cyl",
            "v1": 3,
            "v2": 5,
            "value": "1/2016",
        }

    @pytest.mark.parametrize(
        "argv",
        [["--kind", "disk", "--r", "3"], ["--kind", "cyl", "--v1", "3", "--v2", "5"]],
    )
    def test_value_does_not_depend_on_eps(self, capsys, argv):
        _, value, _ = run(capsys, "fiber", *argv)
        assert run(capsys, "fiber", *argv, "--eps", "7/2") == (0, value, "")
        code, out, _ = run(capsys, "fiber", *argv, "--eps", "1/3", "--json")
        payload = json.loads(out)
        assert (code, payload["eps"], payload["value"]) == (0, "1/3", value.strip())

    def test_disk_without_r_is_a_usage_error(self, capsys):
        assert run(capsys, "fiber", "--kind", "disk") == (
            64,
            "",
            "usage error: --kind disk needs --r\n",
        )

    @pytest.mark.parametrize("eps", ["abc", "1/0"])
    def test_malformed_eps_is_a_usage_error(self, capsys, eps):
        assert run(capsys, "fiber", "--kind", "disk", "--r", "1", "--eps", eps) == (
            64,
            "",
            f"usage error: expected a rational p/q, got {eps!r}\n",
        )

    def test_odd_split_is_a_parity_mismatch(self, capsys):
        code, out, err = run(capsys, "fiber", "--kind", "cyl", "--v1", "1", "--v2", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ParityMismatch",
            "message": "split (1, 2) has odd total",
        }


    @pytest.mark.parametrize(
        "argv, sides",
        [
            (["--kind", "disk", "--r", "14"], 31),
            (["--kind", "cyl", "--v1", "13", "--v2", "15"], 32),
        ],
    )
    def test_an_oversized_hole_walk_is_too_large(self, capsys, argv, sides):
        code, out, err = run(capsys, "fiber", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "TooLarge",
            "message": f"a hole walk of {sides} sides exceeds the limit 30",
        }

    @pytest.mark.parametrize(
        "argv", [["--kind", "disk", "--r", "13"], ["--kind", "cyl", "--v1", "13", "--v2", "13"]]
    )
    def test_a_walk_of_thirty_sides_still_answers(self, capsys, argv):
        code, out, err = run(capsys, "fiber", *argv)
        assert (code, err) == (0, "")
        assert Fraction(out.strip()) > 0


TORUS_FILE = {
    "sides": 6,
    "sigma0": [[1, 2, 3], [4, 5, 6]],
    "sigma1": [[1, 4], [2, 5], [3, 6]],
    "marking": {"p": {"kind": "hole", "orbit": [1, 2, 3, 4, 5, 6]}},
    "lengths": {"1-4": "1/2", "2-5": "1/1", "3-6": "3/2"},
}


class TestOmega:
    @pytest.fixture
    def torus(self, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(TORUS_FILE))
        return str(path)

    def test_pfaffian_text(self, capsys, torus):
        assert run(capsys, "omega", "--graph", torus, "--hole", "p", "--pfaffian") == (
            0,
            "edges: 1-4 2-5 3-6\n"
            "matrix:\n"
            "0 1/18 1/18\n"
            "-1/18 0 -1/18\n"
            "-1/18 1/18 0\n"
            "pfaffian: -1/2\n"
            "nondegenerate: yes\n",
            "",
        )

    def test_pfaffian_json(self, capsys, torus):
        code, out, err = run(
            capsys, "omega", "--graph", torus, "--hole", "p", "--pfaffian", "--json"
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload) == {"edges", "hole", "matrix", "pfaffian", "nondegenerate"}
        assert (payload["pfaffian"], payload["nondegenerate"]) == ("-1/2", True)

    def test_without_pfaffian_flag(self, capsys, torus):
        code, out, err = run(capsys, "omega", "--graph", torus, "--hole", "p", "--json")
        assert (code, err) == (0, "")
        assert set(json.loads(out)) == {"edges", "hole", "matrix"}

    def test_larger_top_cell_matches_the_library(self, capsys, tmp_path):
        # a genus-1 two-hole top cell: a 4 x 4 Pfaffian on the perimeter slice
        profile = enumeration.Profile.from_valencies([3] * 4)
        cell = enumeration.enumerate(1, ["p", "q"], profile)[0]
        lengths = {e: Fraction(i + 2, 3) for i, e in enumerate(sorted(cell.graph.edges()))}
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(graph_to_json(cell.graph, cell.marking, lengths)))
        ok, pf = plforms.nondegeneracy_check(
            MarkedMetricGraph(cell.graph, cell.marking, lengths)
        )
        code, out, err = run(
            capsys, "omega", "--graph", str(path), "--hole", "q", "--pfaffian"
        )
        assert (code, err) == (0, "")
        assert out.endswith(f"pfaffian: {pf}\nnondegenerate: yes\n")
        assert ok and pf != 0


# two bigon circles tied by a doubled edge (1,7) and a long outer edge (6,12);
# shrinking the short hole q leaves a cylinder zone
CYLINDER_FILE = {
    "sides": 12,
    "sigma0": [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]],
    "sigma1": [[1, 7], [2, 4], [3, 5], [6, 12], [8, 10], [9, 11]],
    "marking": {
        "p": {"kind": "hole", "orbit": [2, 5, 6, 8, 11, 12]},
        "q": {"kind": "hole", "orbit": [1, 3, 4, 7, 9, 10]},
    },
    "lengths": {
        "1-7": "1/64",
        "2-4": "1/64",
        "3-5": "1/64",
        "6-12": "2/1",
        "8-10": "1/64",
        "9-11": "1/64",
    },
}
# three holes on a bivalent, a trivalent and a univalent vertex
THREE_HOLES_FILE = {
    "sides": 8,
    "sigma0": [[1, 7, 2, 5], [3, 4, 6], [8]],
    "sigma1": [[1, 4], [2, 3], [5, 6], [7, 8]],
    "marking": {
        "a": {"kind": "hole", "orbit": [1, 3, 7, 8]},
        "b": {"kind": "hole", "orbit": [2, 6]},
        "c": {"kind": "hole", "orbit": [4, 5]},
    },
}
ZSEQ = "[[[1,4],[2,3],[5,6],[7,8]],[[1,4],[2,3],[5,6]],[[1,4],[2,3]]]"


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestShrink:
    def test_text(self, capsys, tmp_path):
        path = _write(tmp_path, "cyl.json", CYLINDER_FILE)
        assert run(capsys, "shrink", "--graph", path, "--hole", "q") == (
            0,
            "kind: cylinder\n"
            "zone genus: 0\n"
            "boundary valencies: 1 1\n"
            "components: 1\n"
            "nodes: 2\n"
            "dual: DualGraph([(0,{p},+); (0,{q},0)], [(0, 1), (0, 1)])\n",
            "",
        )

    def test_json_reads_back(self, capsys, tmp_path):
        path = _write(tmp_path, "cyl.json", CYLINDER_FILE)
        code, out, err = run(capsys, "shrink", "--graph", path, "--hole", "q", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload) == {"kind", "topology", "components", "nodes", "dual"}
        assert payload["kind"] == "cylinder"
        (blob,) = payload["components"]
        graph, marking, lengths = graph_from_json(blob)
        assert marking.targets == {"p": ("hole", frozenset({1, 2}))}
        assert lengths == {(1, 2): Fraction(2)}
        assert payload["nodes"] == [
            {"component": 0, "vertex": [1]},
            {"component": 0, "vertex": [2]},
        ]
        assert all(tuple(n["vertex"]) in graph.vertices() for n in payload["nodes"])


    @pytest.mark.parametrize(
        "doc",
        [
            [CYLINDER_FILE],
            {k: v for k, v in CYLINDER_FILE.items() if k != "sigma0"},
            {k: v for k, v in CYLINDER_FILE.items() if k != "sigma1"},
            dict(CYLINDER_FILE, marking={"q": {"orbit": [1, 3, 4, 7, 9, 10]}}),
            dict(CYLINDER_FILE, marking={"q": {"kind": "hole"}}),
            dict(CYLINDER_FILE, lengths={"1-7": "x"}),
        ],
        ids=["list", "no-sigma0", "no-sigma1", "no-kind", "no-orbit", "bad-length"],
    )
    def test_malformed_graph_file_is_a_domain_error(self, capsys, tmp_path, doc):
        path = _write(tmp_path, "bad.json", doc)
        code, out, err = run(capsys, "shrink", "--graph", path, "--hole", "q")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "DomainMismatch"


class TestStable:
    def test_json_reads_back(self, capsys, tmp_path):
        path = _write(tmp_path, "three.json", THREE_HOLES_FILE)
        code, out, err = run(capsys, "stable", "--graph", path, "--zseq", ZSEQ)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload) == {"components", "iota"}
        assert [blob["order"] for blob in payload["components"]] == [0, 1]
        parsed = [graph_from_json(blob) for blob in payload["components"]]
        labels = [sorted(marking.targets) for _, marking, _ in parsed]
        assert labels == [["a"], ["b", "c"]]
        assert all(sum(lengths.values()) == 1 for _, _, lengths in parsed)
        assert payload["iota"] == [
            [
                {"component": 0, "kind": "vertex", "orbit": [1]},
                {"component": 1, "kind": "vertex", "orbit": [1, 2]},
            ]
        ]
        for pair in payload["iota"]:
            for point in pair:
                graph = parsed[point["component"]][0]
                assert tuple(point["orbit"]) in graph.vertices()

    @pytest.mark.parametrize(
        "zseq", ['[[[1, "a"]]]', "[[[1.5, 4]]]", "[[[true, 4]]]"], ids=["str", "float", "bool"]
    )
    def test_a_side_that_is_not_an_integer_is_a_usage_error(self, capsys, tmp_path, zseq):
        path = _write(tmp_path, "three.json", THREE_HOLES_FILE)
        code, out, err = run(capsys, "stable", "--graph", path, "--zseq", zseq)
        assert (code, out) == (64, "")
        assert err.startswith("usage error: ")


GRAPH_COMMANDS = {
    "shrink": ("--hole", "q"),
    "omega": ("--hole", "q"),
    "stable": ("--zseq", ZSEQ),
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
@pytest.mark.parametrize(
    "doc",
    [
        dict(CYLINDER_FILE, sigma0=5),
        dict(CYLINDER_FILE, sigma1=[1, 7]),
        dict(CYLINDER_FILE, sides=[[12]]),
        dict(CYLINDER_FILE, marking={"q": {"kind": "hole", "orbit": 5}}),
    ],
    ids=["sigma0-int", "sigma1-flat", "sides-nested", "orbit-int"],
)
def test_ill_typed_graph_file_is_a_domain_error(capsys, tmp_path, command, doc):
    path = _write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, command, "--graph", path, *GRAPH_COMMANDS[command])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "DomainMismatch"


MANIFEST_RUNS = {
    "fpoly": ("fpoly", "--profile", "0,3"),
    "relation": ("relation", "--rho", "1,1", "--keep", "q1"),
    "check": ("check", "two-vertex", "--a", "5", "--b", "6"),
    "cluster-count": ("cluster-count", "--rho", "1,0,0"),
    "fiber": ("fiber", "--kind", "cyl", "--v1", "3", "--v2", "5"),
    "omega": ("omega", "--graph", TORUS_FILE, "--hole", "p", "--pfaffian"),
    "shrink": ("shrink", "--graph", CYLINDER_FILE, "--hole", "q"),
    "stable": ("stable", "--graph", THREE_HOLES_FILE, "--zseq", ZSEQ),
}


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_digest_is_the_sha256_of_stdout(capsys, tmp_path, command, json_flag):
    argv = [
        _write(tmp_path, "graph.json", arg) if isinstance(arg, dict) else arg
        for arg in MANIFEST_RUNS[command]
    ]
    path = tmp_path / "run.json"
    code, out, err = run(capsys, *argv, *json_flag, "--manifest", str(path))
    assert (code, err) == (0, "")
    manifest = json.loads(path.read_text())
    assert manifest["command"] == command
    assert manifest["version"] == cli.__version__
    assert manifest["digest"] == hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()
    assert run(capsys, *argv, *json_flag) == (0, out, "")


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["fpoly", "--profile", "x"], 64, None),
        (["check", "two-vertex", "--a", "x", "--b", "1"], 64, None),
        (["cluster-count", "--rho", "1,x"], 64, None),
        (["omega", "--hole", "p"], 64, None),
        (["strata", "--genus", "1", "--labels", "p"], 64, None),
        (["check", "two-vertex", "--a", "0", "--b", "1"], 2, "DomainMismatch"),
        (["cluster-count", "--rho="], 2, "DomainMismatch"),
        (["strata", "--genus", "0", "--labels", "p", "--hole", "p"], 2, "InconsistentProfile"),
        (["fpoly", "--profile", "0,1", "--g", "0", "--n", "1"], 2, "InconsistentProfile"),
        (
            ["cluster-count", "--method", "recurrence", "--rho", "1,1,1,1,1,1,1,1"],
            2,
            "TooLarge",
        ),
        # coefficients past Python's 4,300-digit int-to-str limit
        (["check", "two-vertex", "--a", "1", "--b", "1500"], 2, "TooLarge"),
        (["fpoly", "--profile", ",".join(["0"] * 1600 + ["1"])], 2, "TooLarge"),
        (["cluster-count", "--method", "closed", "--rho", ",".join(["2000"] + ["0"] * 2000)],
         2, "TooLarge"),
        (
            ["cluster-count", "--method", "closed", "--rho", ",".join(["2000"] + ["0"] * 2000),
             "--json"],
            2,
            "TooLarge",
        ),
        # a negative genus has no cells
        (["euler", "--genus", "-1", "--n", "5"], 2, "InconsistentProfile"),
        (["strata", "--genus", "-1", "--labels", "a,b,c,d,e", "--hole", "a"], 2,
         "InconsistentProfile"),
        (["enumerate", "--genus", "-1", "--labels", "a,b,c,d,e", "--profile", "2"], 2,
         "InconsistentProfile"),
        (["relation", "--rho", "1,x"], 64, None),
        (
            ["relation", "--rho", ",".join(["1"] * 11),
             "--keep", ",".join(f"q{i}" for i in range(1, 12))],
            2,
            "TooLarge",
        ),
        (["fiber", "--kind", "cyl", "--v1", "3"], 64, None),
        (["fiber", "--kind", "disk", "--r", "-1"], 2, "DomainMismatch"),
        (["shrink", "--hole", "q"], 64, None),
        (["shrink", "--graph", CYLINDER_FILE, "--hole", "zz"], 2, "DomainMismatch"),
        (["stable", "--graph", THREE_HOLES_FILE, "--zseq", "[[1, 4]"], 64, None),
        # the first stage must be every edge
        (["stable", "--graph", THREE_HOLES_FILE, "--zseq", "[[[1,4]]]"], 2, "NotPermissible"),
    ],
)
def test_exit_codes(capsys, tmp_path, argv, code, error):
    argv = [_write(tmp_path, "graph.json", arg) if isinstance(arg, dict) else arg for arg in argv]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    if error is None:
        assert err.startswith("usage error: ")
    else:
        assert json.loads(err)["error"] == error


def test_an_empty_rho_reports_the_cluster_message(capsys):
    assert run(capsys, "cluster-count", "--rho=") == (
        2,
        "",
        '{"error": "DomainMismatch", "message": "a cluster holds at least one hole"}\n',
    )


def _boom():
    raise ZeroDivisionError("division by zero")


class TestRepro:
    """The table and exit code of ``--repro`` on a stand-in registry."""

    def test_every_check_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(
            checks, "CHECKS", [("one", lambda: (True, "fine")), ("second-check", lambda: (True, "ok"))]
        )
        assert run(capsys, "--repro") == (
            0,
            "one           PASS  fine\n"
            "second-check  PASS  ok\n"
            "2/2 checks passed\n",
            "",
        )

    def test_a_failing_or_raising_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            checks,
            "CHECKS",
            [("one", lambda: (True, "fine")), ("off", lambda: (False, "7 != 8")), ("boom", _boom)],
        )
        assert run(capsys, "--repro") == (
            1,
            "one   PASS  fine\n"
            "off   FAIL  7 != 8\n"
            "boom  FAIL  ZeroDivisionError: division by zero\n"
            "1/3 checks passed\n",
            "",
        )
