"""Matrix file format and command-line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polynull
from polynull import MatrixParseError, Poly, PolyMatrix
from polynull.cli import main, parse_matrix, serialize_matrix

from conftest import make_rng, poly


HEADER = "polymat 1 p=2147483647 rows={rows} cols={cols}"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_header_only_is_zero_matrix(self, field):
        m = parse_matrix(HEADER.format(rows=2, cols=2))
        assert m == PolyMatrix.zeros(field, 2, 2)

    def test_round_trip(self, field):
        from polynull import pm_random

        m = pm_random(3, 2, 4, field, make_rng(1))
        assert parse_matrix(serialize_matrix(m)) == m

    def test_coefficient_at_modulus_rejected(self):
        text = HEADER.format(rows=1, cols=1) + "\n0 0 : 2147483647\n"
        with pytest.raises(MatrixParseError, match="line 2.*out of range"):
            parse_matrix(text)

    def test_duplicate_entry_rejected(self):
        text = HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n0 0 : 2\n"
        with pytest.raises(MatrixParseError, match="line 3.*duplicate"):
            parse_matrix(text)

    def test_index_out_of_range(self):
        text = HEADER.format(rows=2, cols=2) + "\n2 0 : 1\n"
        with pytest.raises(MatrixParseError, match="line 2.*out of range"):
            parse_matrix(text)

    def test_malformed_header(self):
        with pytest.raises(MatrixParseError, match="line 1"):
            parse_matrix("polymat 1 p=31 rows=2\n")

    def test_comments_and_blank_lines(self, field):
        text = HEADER.format(rows=1, cols=1) + "\n\n# note\n0 0 : 3 0 1\n"
        m = parse_matrix(text)
        assert m.poly(0, 0) == poly(field, 3, 0, 1)

    def test_prime_override(self):
        m = parse_matrix(HEADER.format(rows=1, cols=1) + "\n0 0 : 4\n", prime_override=7)
        assert m.field.p == 7


class TestCommands:
    def test_nullspace_identity(self, tmp_path, capsys):
        text = HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n"
        path = write(tmp_path, "id2.pm", text)
        code = main(["--seed", "5", "--json", "nullspace", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2
        assert report["basis"] == []
        assert report["certified"] is True

    def test_minimal_vectors_column(self, tmp_path, capsys, field):
        text = HEADER.format(rows=2, cols=1) + "\n0 0 : 1\n1 0 : 0 1\n"
        path = write(tmp_path, "col.pm", text)
        code = main(["--seed", "5", "--json", "minimal-vectors", path, "--delta", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == 1
        assert report["degrees"] == [1]
        (row,) = report["basis"]
        lead, other = Poly(field, row[0]), Poly(field, row[1])
        assert lead == -(other * Poly.x(field))

    def test_minimal_vectors_reports_retries(self, tmp_path, capsys):
        from polynull import FieldSpec, pm_random

        # plan seed 15 fails its first attempt on this p = 101 input
        m = pm_random(9, 3, 2, FieldSpec(101), make_rng(0))
        path = write(tmp_path, "small.pm", serialize_matrix(m))
        code = main(["--seed", "15", "--json", "minimal-vectors", path, "--delta", "4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["retries_used"] == 1

    def test_rank_planted_fixture(self, tmp_path, capsys, field):
        from polynull import pm_mul, pm_random

        rng = make_rng(2)
        m = pm_mul(pm_random(5, 2, 1, field, rng), pm_random(2, 4, 1, field, rng))
        path = write(tmp_path, "planted.pm", serialize_matrix(m))
        code = main(["--seed", "9", "--json", "rank", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2
        assert report["certified"] is True

    def test_mul_round_trip(self, tmp_path, capsys, field):
        from polynull import pm_mul, pm_random

        rng = make_rng(3)
        a = pm_random(2, 3, 2, field, rng)
        b = pm_random(3, 2, 2, field, rng)
        pa = write(tmp_path, "a.pm", serialize_matrix(a))
        pb = write(tmp_path, "b.pm", serialize_matrix(b))
        assert main(["mul", pa, pb]) == 0
        out = capsys.readouterr().out
        assert parse_matrix(out) == pm_mul(a, b)

    def test_emitted_basis_reverifies(self, tmp_path, capsys, field):
        from polynull import pm_mul, pm_random

        rng = make_rng(4)
        m = pm_mul(pm_random(5, 2, 2, field, rng), pm_random(2, 3, 1, field, rng))
        path = write(tmp_path, "m.pm", serialize_matrix(m))
        assert main(["--seed", "1", "--json", "nullspace", path]) == 0
        report = json.loads(capsys.readouterr().out)
        basis = PolyMatrix.from_polys(
            [[Poly(field, c) for c in row] for row in report["basis"]]
        )
        basis_path = write(tmp_path, "basis.pm", serialize_matrix(basis))
        assert main(["verify", basis_path, path]) == 0

    def test_verify_rejects_non_annihilator(self, tmp_path, capsys):
        ident = HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n"
        path = write(tmp_path, "i.pm", ident)
        assert main(["verify", path, path]) == 1

    def test_oracle_kronecker(self, tmp_path, capsys):
        text = HEADER.format(rows=2, cols=1) + "\n0 0 : 1\n1 0 : 0 1\n"
        path = write(tmp_path, "col.pm", text)
        assert main(["--json", "oracle", "kronecker", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 1
        assert report["indices"] == [1]

    def test_seed_determinism_byte_for_byte(self, tmp_path, capsys, field):
        from polynull import pm_mul, pm_random

        rng = make_rng(5)
        m = pm_mul(pm_random(6, 3, 1, field, rng), pm_random(3, 4, 1, field, rng))
        path = write(tmp_path, "m.pm", serialize_matrix(m))
        main(["--seed", "31337", "--json", "nullspace", path])
        first = capsys.readouterr().out
        main(["--seed", "31337", "--json", "nullspace", path])
        second = capsys.readouterr().out
        assert first == second

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.pm", "not a matrix\n")
        assert main(["rank", path]) == 3
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["rank", str(tmp_path / "absent.pm")]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["nullspace", "{dir}"],
            ["verify", "{dir}", "{ok}"],
            ["verify", "{ok}", "{dir}"],
            ["nullspace", "{binary}"],
            ["verify", "{binary}", "{ok}"],
        ],
    )
    def test_unreadable_input_is_parse_error(self, tmp_path, capsys, argv):
        # exit 1 would tell a script that a basis failed verification
        paths = {
            "dir": str(tmp_path),
            "ok": write(tmp_path, "id2.pm", HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n"),
            "binary": str(tmp_path / "blob.pm"),
        }
        (tmp_path / "blob.pm").write_bytes(b"\xff\xfe\x00\x81polymat\x80")
        assert main([arg.format(**paths) for arg in argv]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_closed_output_pipe(self, tmp_path):
        # `polynull nullspace m.pm | head -c 10`: the reader leaves early
        path = write(tmp_path, "id2.pm", HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n")
        src = str(Path(polynull.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "polynull.cli", "--seed", "1", "nullspace", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # before the child has imported numpy, let alone written
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert err == ""

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_negative_retry_budget_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "id2.pm", HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n")
        assert main(["--max-retries", "-1", "nullspace", path]) == 2
        err = capsys.readouterr().err
        assert "retry budget" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_incompatible_shapes_exit_cleanly(self, tmp_path, capsys):
        tall = HEADER.format(rows=4, cols=2) + "\n0 0 : 1\n1 1 : 1\n2 0 : 0 1\n"
        path = write(tmp_path, "tall.pm", tall)
        assert main(["verify", path, path]) == 2
        assert "error" in capsys.readouterr().err

    def test_precondition_violation_exits_cleanly(self, tmp_path, capsys):
        square = HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n"
        assert main(["minimal-vectors", write(tmp_path, "sq.pm", square), "--delta", "1"]) == 2
        tall = HEADER.format(rows=2, cols=1) + "\n0 0 : 1\n1 0 : 0 1\n"
        assert main(["--seed", "1", "minimal-vectors", write(tmp_path, "t.pm", tall), "--delta", "-1"]) == 2

    def test_algorithm_failure_exit_code(self, tmp_path, capsys):
        # rank-deficient tall input: certification can never pass
        text = HEADER.format(rows=3, cols=2) + "\n0 0 : 0 1\n0 1 : 0 1\n1 0 : 1\n1 1 : 1\n"
        path = write(tmp_path, "deficient.pm", text)
        code = main(["--seed", "1", "--max-retries", "1", "minimal-vectors", path, "--delta", "1"])
        assert code == 4
        assert "failed" in capsys.readouterr().err

    def test_human_readable_output(self, tmp_path, capsys):
        text = HEADER.format(rows=2, cols=2) + "\n0 0 : 1\n1 1 : 1\n"
        path = write(tmp_path, "id2.pm", text)
        assert main(["--seed", "5", "rank", path]) == 0
        out = capsys.readouterr().out
        assert "rank: 2" in out
