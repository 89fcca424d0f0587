"""Command-line surface: golden table output, formats, exit codes."""

import json
import re
import shlex
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from chebring.cli import main
from chebring.structure import partition

WIEFERICH_TABLE_10_6 = {
    2: ["103"],
    3: ["13", "31"],
    4: ["181", "1039", "2917"],
    5: ["7", "523"],
    6: ["23", "577"],
    7: ["103"],
    8: ["-"],
    9: ["-"],
    10: ["-"],
    11: ["-"],
    12: ["5", "311"],
    13: ["5", "43", "71"],
    14: ["557", "19739"],
    15: ["-"],
    16: ["5231", "6491", "30071"],
    17: ["13", "31"],
    18: ["11"],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, _ = run(capsys, ["eval", "-a", "19", "-n", "24", "-m", "23"])
    assert code == 0
    assert out == "T=1 U=0\n"


def test_characters_golden(capsys):
    code, out, _ = run(capsys, ["characters", "-a", "19", "-p", "23"])
    assert code == 0
    assert out == "eps=-1 delta=-1\n"


def test_euler_golden(capsys):
    assert run(capsys, ["euler", "-a", "2", "-p", "7"])[1] == "pass\n"
    assert run(capsys, ["euler", "-a", "2", "-p", "7", "--mod-p2"])[1] == "pass\n"


def test_partition_table_golden(capsys):
    _, out, _ = run(capsys, ["partition", "-p", "23"])
    assert out == (
        "p=23\n"
        "A++: 2 3 5 7 17\n"
        "A+-: 6 16 18 20 21\n"
        "A-+: 0 8 11 12 15\n"
        "A--: 4 9 10 13 14 19\n"
    )


def test_orders_table_golden(capsys):
    _, out, _ = run(capsys, ["orders", "-p", "23"])
    assert out == (
        "p=23\n"
        "I_3: 11\n"
        "I_4: 0\n"
        "I_6: 12\n"
        "I_8: 9 14\n"
        "I_11: 2 3 5 7 17\n"
        "I_12: 8 15\n"
        "I_22: 6 16 18 20 21\n"
        "I_24: 4 10 13 19\n"
    )


def test_splitting_golden(capsys):
    _, out, _ = run(capsys, ["splitting", "-d", "11", "-p", "23"])
    assert out == "d=11 p=23 splits=true roots: 2 3 5 7 17\n"
    _, out, _ = run(capsys, ["splitting", "-d", "5", "-p", "23"])
    assert out == "d=5 p=23 splits=false roots: -\n"


def test_cyclo_check_golden(capsys):
    assert run(capsys, ["cyclo-check", "-n", "12"])[1] == "pass\n"


def test_pseudoprimes_full_golden(capsys):
    _, out, _ = run(capsys, ["pseudoprimes", "--base", "2", "--limit", "20000"])
    assert out == "989\n2701\n10609\n11041\n15505\n18721\n18817\n"


def test_pseudoprimes_strong_golden(capsys):
    _, out, _ = run(capsys, ["pseudoprimes", "--base", "2", "--limit", "20000", "--kind", "strong"])
    assert out == (
        "989: 1\n"
        "2701: 0 -1\n"
        "10609: 9083 0 -1 1\n"
        "11041: 0 -1 1 1 1\n"
        "18817: 18791 1351 18720 0 -1 1 1\n"
    )


@pytest.mark.parametrize("base", sorted(WIEFERICH_TABLE_10_6))
def test_wieferich_table_golden(capsys, base):
    _, out, _ = run(capsys, ["wieferich", "--base", str(base), "--limit", "1000000"])
    assert out.splitlines() == WIEFERICH_TABLE_10_6[base]


def test_lucas_lehmer_golden(capsys):
    assert run(capsys, ["lucas-lehmer", "-p", "7"])[1] == "M_7 = 127: prime\n"
    assert run(capsys, ["lucas-lehmer", "-p", "11"])[1] == "M_11 = 2047: composite\n"


def test_taxicab_golden(capsys):
    assert run(capsys, ["taxicab", "--limit", "2000"])[1] == "1729\n"
    assert run(capsys, ["taxicab", "--limit", "1728"])[1] == "none\n"


def test_expsum_csv_golden(capsys):
    _, out, _ = run(capsys, ["expsum", "-p", "23", "--format", "csv"])
    assert out == (
        "p,|g++|,|g+-|,|g-+|,|g--|,|S|,bound,max_ratio\n"
        "23,2.552466,2.552466,2.134733,2.465715,8.275061,6.045832,0.532226\n"
    )


def test_expsum_json_golden(capsys):
    """Every digit of the sums; the empty ++ cell at p = 5 is the int 0, which
    prints as [0, 0] (a complex zero would print [0.0, 0.0])."""
    _, out, _ = run(capsys, ["expsum", "-p", "5", "--format", "json"])
    assert out == (
        '{"p": 5, "g": {'
        '"++": [0, 0], '
        '"+-": [1.0, 0.0], '
        '"-+": [-0.8090169943749473, 0.5877852522924731], '
        '"--": [-0.8090169943749475, -0.587785252292473]}, '
        '"S": [1.618033988749895, -1.1102230246251565e-16], '
        '"bound": 3.48606797749979, "max_ratio": 0.4472135954999579}\n'
    )
    _, out, _ = run(capsys, ["expsum", "-p", "23", "--format", "json"])
    assert out == (
        '{"p": 23, "g": {'
        '"++": [1.3373065352821196, 2.174096154924162], '
        '"+-": [1.3373065352821185, -2.1740961549241584], '
        '"-+": [-2.1347325363023937, -1.1102230246251565e-16], '
        '"--": [-2.4657151089574394, 7.771561172376096e-16]}, '
        '"S": [8.275060715824072, 3.774758283725532e-15], '
        '"bound": 6.045831523312719, "max_ratio": 0.5322259597023207}\n'
    )


def test_expsum_table_head(capsys):
    _, out, _ = run(capsys, ["expsum", "-p", "23"])
    lines = out.splitlines()
    assert lines[0] == "p=23 bound=6.045832 max_ratio=0.532226"
    assert lines[1].startswith("g++ = ")
    assert lines[5].startswith("S = ")


def test_expsum_sweep_csv_golden(capsys):
    _, out, _ = run(capsys, ["expsum-sweep", "--max", "7", "--format", "csv"])
    assert out == (
        "p,|g++|,|g+-|,|g-+|,|g--|,|S|,bound,max_ratio\n"
        "5,0.000000,1.000000,1.000000,1.000000,1.618034,3.486068,0.447214\n"
        "7,1.000000,1.000000,1.000000,0.445042,1.356896,3.895751,0.377964\n"
    )


def test_primroot_golden(capsys):
    assert run(capsys, ["primroot", "-a", "2", "--limit", "1000"])[1] == "a=2 real=11 unreal=7\n"
    assert run(capsys, ["primroot", "-a", "3", "--limit", "1000"])[1] == "a=3 real=- unreal=3\n"


def test_primroot_square_warning_on_stderr(capsys):
    code, out, err = run(capsys, ["primroot", "-a", "7", "--limit", "100"])
    assert code == 0
    assert out == "a=7 real=- unreal=-\n"
    assert "warning" in err


def test_dh_demo_golden(capsys):
    _, out, _ = run(
        capsys, ["dh-demo", "-p", "23", "-g", "19", "--secret-a", "5", "--secret-b", "7"]
    )
    assert out == (
        "p=23 g=19\n"
        "A: secret=5 sent=10 wire=2:232:192:10\n"
        "B: secret=7 sent=13 wire=2:232:192:13\n"
        "A shared=4\n"
        "B shared=4\n"
        "ok=true\n"
    )


def test_dh_demo_seed_deterministic(capsys):
    _, first, _ = run(capsys, ["dh-demo", "-p", "1009", "-g", "6", "--seed", "7"])
    _, second, _ = run(capsys, ["dh-demo", "-p", "1009", "-g", "6", "--seed", "7"])
    assert first == second
    assert "ok=true" in first


def test_dlog_golden(capsys):
    assert run(capsys, ["dlog", "-p", "23", "-g", "19", "-t", "0"])[1] == "n=6\n"
    assert run(capsys, ["dlog", "-p", "23", "-g", "19", "-t", "2"])[1] == "none\n"


def test_aks_check_golden(capsys):
    assert run(capsys, ["aks-check", "-n", "7"])[1] == "n=7: pass\n"
    assert run(capsys, ["aks-check", "-n", "9"])[1] == "n=9: fail\n"
    assert run(capsys, ["aks-check", "-n", "15", "--shift", "1"])[1] == "n=15: fail\n"
    assert run(capsys, ["aks-check", "-n", "11", "--shift", "2"])[1] == "n=11: pass\n"


def test_coeff_golden(capsys):
    assert run(capsys, ["coeff", "-n", "5", "-k", "1"])[1] == "-20\n"
    assert run(capsys, ["coeff", "-n", "5", "-k", "2"])[1] == "5\n"


def test_json_format(capsys):
    _, out, _ = run(capsys, ["eval", "-a", "19", "-n", "24", "-m", "23", "--format", "json"])
    assert json.loads(out) == {"a": 19, "n": 24, "m": 23, "T": 1, "U": 0}
    _, out, _ = run(capsys, ["partition", "-p", "23", "--format", "json"])
    assert out.strip() == partition(23).to_json()
    _, out, _ = run(
        capsys, ["pseudoprimes", "--base", "2", "--limit", "3000", "--format", "json"]
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in records] == [989, 2701]
    _, out, _ = run(capsys, ["wieferich", "--base", "8", "--limit", "1000", "--format", "json"])
    assert out == ""  # no hits, no records


def test_csv_format(capsys):
    _, out, _ = run(capsys, ["eval", "-a", "19", "-n", "24", "-m", "23", "--format", "csv"])
    assert out == "a,n,m,T,U\n19,24,23,1,0\n"
    _, out, _ = run(capsys, ["partition", "-p", "23", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "a,eps,delta,order"
    assert lines[1] == "0,-1,1,4"
    assert len(lines) == 22
    _, out, _ = run(capsys, ["wieferich", "--base", "13", "--limit", "100", "--format", "csv"])
    assert out == "p,base\n5,13\n43,13\n71,13\n"


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, ["euler", "-a", "2", "-p", "9"])
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(capsys, ["aks-check", "-n", "20000"])
    assert code == 1
    assert "cap" in err
    for argv in (["partition", "-p", "1000000007"], ["expsum", "-p", "1000003"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: prime {argv[-1]} exceeds the table cap of 262144\n"
    for command in ("wieferich", "pseudoprimes"):
        code, out, err = run(capsys, [command, "--base", "3", "--limit", "2147483648"])
        assert (code, out) == (1, "")
        assert err == "error: limit 2147483648 exceeds the search cap of 2147483647 (int64 lanes)\n"
    code, _, err = run(capsys, ["dh-demo", "-p", "15", "-g", "2"])
    assert code == 1
    for flag in ([], ["--mod-p2"]):  # 4 is not +-1 mod 15, but 4^2 - 1 = 15
        code, out, err = run(capsys, ["euler", "-a", "4", "-p", "15", *flag])
        assert (code, out, err) == (1, "", "error: degenerate base: gcd(4^2 - 1, 15) = 15\n")
    code, _, err = run(capsys, ["euler", "-a", "14", "-p", "15"])
    assert (code, err) == (1, "error: degenerate base: 14 = +-1 mod 15\n")


def test_splitting_past_the_table_cap_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["splitting", "-d", "5", "-p", "1000000007"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: prime 1000000007 exceeds the table cap of 262144\n")


def test_splitting_near_the_caps_runs_in_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["splitting", "-d", "1399", "-p", "8389"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "d=1399 p=8389 splits=false roots: -\n")


def test_expsum_sweep_past_the_table_cap_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["expsum-sweep", "--max", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: prime limit 1000000 exceeds the table cap of 262144\n")


def test_lucas_lehmer_past_the_cap_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["lucas-lehmer", "-p", "9689"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: exponent 9689 exceeds the Lucas-Lehmer cap of 4423\n")


def test_primroot_past_the_cap_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["primroot", "-a", "3", "--limit", "10000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: prime limit 10000000 exceeds the table cap of 262144\n")


@pytest.mark.parametrize("argv", [["cyclo-check", "-n", "30000"], ["splitting", "-d", "9240", "-p", "23"]])
def test_exact_polynomials_past_the_cap_exit_1(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"error: index {argv[2]} exceeds the cyclotomic cap of 1400\n")


def test_coeff_past_the_cap_exits_1(capsys):
    """Past DEGREE_CAP the error names the cap, not the interpreter's limit on
    printing long integers."""
    code, out, err = run(capsys, ["coeff", "-n", "14400", "-k", "1"])
    assert (code, out, err) == (1, "", "error: degree 14400 exceeds the cap of 10000\n")


def test_readme_transcripts(capsys):
    """Every `$ chebring ...` line in README.md's code blocks prints exactly the
    lines under it, up to the next blank line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```$", readme, re.S | re.M)
    examples = [ex for block in blocks for ex in block.split("\n\n") if ex.startswith("$ chebring ")]
    assert examples
    for example in examples:
        command, *expected = example.rstrip("\n").split("\n")
        code, out, err = run(capsys, shlex.split(command)[2:])
        assert (code, out, err) == (0, "\n".join(expected) + "\n", ""), command


def test_usage_errors_exit_2(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["eval", "-a", "19", "-n", "24"],
        ["pseudoprimes", "--base", "2", "--limit", "100", "--kind", "bogus"],
        ["eval", "-a", "19", "-n", "24", "-m", "23", "--format", "xml"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.skipif(shutil.which("chebring") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["chebring", "eval", "-a", "19", "-n", "24", "-m", "23"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "T=1 U=0\n"
    proc = subprocess.run(["chebring", "euler", "-a", "2", "-p", "9"], capture_output=True)
    assert proc.returncode == 1
    proc = subprocess.run(["chebring", "nope"], capture_output=True)
    assert proc.returncode == 2
