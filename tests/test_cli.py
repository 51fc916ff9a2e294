import json

import pytest

from ribboncalc import cli


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
