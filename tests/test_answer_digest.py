"""``tools/answer_digest.py --compare`` on two small hand-made digests."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"
SHA_A, SHA_B = "ab" * 32, "cd" * 32

BEFORE = f"""\
wide 7 0 20 [1,1,2] 0 {SHA_A}
wide 7 1 20 [2,2] 0 {SHA_A}
wide 7 2 19 [0] 1 {SHA_A}
wide 7 3 KappaMismatch
prod 7 0 {SHA_A}
prod 7 1 {SHA_A}
"""

AFTER = f"""\
wide 7 0 20 [1,1,2] 0 {SHA_A}
wide 7 1 20 [1,2] 0 {SHA_B}
wide 7 2 20 [1,1] 0 {SHA_B}
wide 7 3 20 [3] 2 {SHA_B}
prod 7 0 {SHA_A}
prod 7 1 {SHA_B}
"""


def test_compare_counts_per_workload(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before, after = tmp_path / "before.txt", tmp_path / "after.txt"
    before.write_text(BEFORE)
    after.write_text(AFTER)
    assert tool.main(["--compare", str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "wide: 4 calls in both, 1 identical, ranks equal 2 of 3, "
        "degree sums rose 1 fell 1 equal 1, Fail 1 -> 0",
        "prod: 2 calls in both, 1 identical, ranks equal 0 of 0, "
        "degree sums rose 0 fell 0 equal 0, Fail 0 -> 0",
    ]
