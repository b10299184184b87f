import json
from dataclasses import asdict, fields, replace

import pytest

from mockchar.bfile import load_fixture, serialize_bfile
from mockchar.classify import DEFAULT_PARAMS, ClassifyParams
from mockchar.cli import _resolve_config, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKron:
    def test_range_is_paperfolding_prefix(self, capsys):
        code, out, _ = run(capsys, "kron", "-1", "1..15")
        assert code == 0
        values = [int(line.split()[1]) for line in out.strip().splitlines()]
        assert values == [1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, -1, 1, -1, -1]

    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "kron", "3", "3")
        assert code == 0 and out.strip() == "0"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "kron", "3", "1..24", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 25

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "kron", "3", "5..x")
        assert code == 2 and "range" in err


class TestSeq:
    def test_paperfold(self, capsys):
        code, out, _ = run(capsys, "seq", "--paperfold", "0..7", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1] == "0,0"


class TestClassify:
    def test_mock(self, capsys):
        code, out, _ = run(capsys, "classify", "--kron", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "mock-character"
        assert payload["mockulus"] == 2 and payload["zero_divisor"] == 3
        assert payload["schema"] == "mockchar.verdict.v1"

    def test_character(self, capsys):
        code, out, _ = run(capsys, "classify", "--kron", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "dirichlet-character"

    def test_base_three_inconclusive_exit_4(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--kron", "7", "--base", "3",
            "--kernel-window", "128", "--kernel-max-size", "512",
            "--format", "json",
        )
        assert code == 4
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_inconsistent_file_exit_3(self, capsys, tmp_path):
        # completely multiplicative fails: f(4) != f(2)^2
        seq = tmp_path / "bad.txt"
        lines = ["0 0", "1 1", "2 1", "3 1", "4 -1"] + [f"{n} 1" for n in range(5, 40)]
        seq.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "classify", "--file", str(seq), "--format", "json")
        assert code == 3
        assert json.loads(out)["verdict"] == "inconsistent"

    def test_too_short_file_names_its_length(self, capsys, tmp_path):
        seq = tmp_path / "short.txt"
        seq.write_text("0 0\n1 1\n2 -1\n")
        code, out, err = run(capsys, "classify", "--file", str(seq))
        assert code == 1 and out == ""
        assert "known only for n < 3" in err and "ran out of data" not in err

    def test_needs_source(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2 and "input source" in err


class TestFsm:
    def test_dot_to_stdout_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "fsm", "--paperfold", "--dot", "-")
        code2, out2, _ = run(capsys, "fsm", "--paperfold", "--dot", "-")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.count("shape=circle") == 4

    def test_dot_to_file(self, capsys, tmp_path):
        target = tmp_path / "pf.dot"
        code, out, _ = run(capsys, "fsm", "--kron", "5", "--dot", str(target))
        assert code == 0
        assert "states" in out
        assert target.read_text().startswith("digraph")

    def test_overflow_reports_error(self, capsys):
        code, _, err = run(
            capsys,
            "fsm", "--kron", "3", "--base", "3", "--dot", "-",
            "--kernel-window", "128", "--kernel-max-size", "256",
        )
        assert code == 1
        assert "did not close" in err


class TestCompare:
    def test_full_match(self, capsys, tmp_path):
        fixture = tmp_path / "b034947.txt"
        fixture.write_text(serialize_bfile(load_fixture("b034947.txt")))
        code, out, _ = run(capsys, "compare", "--paperfold", str(fixture))
        assert code == 0 and "1000" in out

    def test_kron3_matches_its_fixture(self, capsys, tmp_path):
        fixture = tmp_path / "b091338.txt"
        fixture.write_text(serialize_bfile(load_fixture("b091338.txt")))
        code, out, _ = run(capsys, "compare", "--kron", "3", str(fixture))
        assert code == 0

    def test_mismatch_reported(self, capsys, tmp_path):
        fixture = tmp_path / "b034947.txt"
        fixture.write_text(serialize_bfile(load_fixture("b034947.txt")))
        code, out, _ = run(capsys, "compare", "--kron", "3", str(fixture))
        assert code == 1
        assert out.startswith("mismatch at n = 2")  # (3|2) = -1 vs (-1|2) = +1


class TestNumericCommands:
    def test_distance_half(self, capsys):
        code, out, _ = run(
            capsys, "distance", "--f", "kron:-1", "--g", "char:-4", "--y", "1000"
        )
        assert code == 0 and out.strip() == "0.5"

    def test_distance_trace_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "distance", "--f", "kron:3", "--g", "char:-4", "--y", "10,100,1000",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,distance_sq,exact"
        assert len(lines) == 4

    def test_lseries_identity(self, capsys):
        code, out, _ = run(
            capsys,
            "lseries", "--a", "3", "--s", "2", "--N", "10000", "--identity",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["within_bound"] is True

    def test_lseries_trace(self, capsys):
        code, out, _ = run(
            capsys, "lseries", "--a", "3", "--N", "100,1000", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,partial_re,partial_im,tail_bound"
        assert len(lines) == 3

    def test_product_paperfold(self, capsys):
        code, out, _ = run(capsys, "product", "--paperfold", "--N", "100000")
        assert code == 0
        assert abs(float(out.strip()) - 0.6555) < 1e-3

    def test_f4check(self, capsys):
        code, out, _ = run(
            capsys, "f4check", "--a", "3", "--all-embeddings", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identity_holds"] is True and payload["r_period"] == 24


# (argv, exit code, stdout, stderr) of the series commands at the edges of
# their inputs; a, N and s are checked before any symbol row is built
EDGE_CASES = [
    (["f4check", "--a", "5"], 1, "", "mockchar: a = 5 is not 3 mod 4\n"),
    (["f4check", "--a", "3", "--N", "-1"], 1, "",
     "mockchar: coefficient count must equal the truncation\n"),
    (["f4check", "--a", "3", "--N", "0"], 1, "",
     "mockchar: prefix length 0 < 3328 required by the bounds\n"),
    (["f4check", "--a", "3", "--N", "1"], 1, "",
     "mockchar: prefix length 1 < 3328 required by the bounds\n"),
    (["lseries", "--a", "3", "--N", "0"], 1, "", "mockchar: truncation must be >= 1\n"),
    (["lseries", "--a", "3", "--s", "1"], 1, "",
     "mockchar: absolutely convergent region only: need Re(s) > 1\n"),
    (["lseries", "--a", "0", "--N", "1000"], 0, "0 (tail bound 1.000e-03)\n", ""),
    (["lseries", "--a", "3", "--N", "10,100,1000"], 0,
     "10 0.7464668367346938 0.0 0.1\n"
     "100 0.7599307924029445 0.0 0.01\n"
     "1000 0.7597667785425892 0.0 0.001\n", ""),
    (["lseries", "--a", "5", "--identity"], 1, "", "mockchar: a = 5 is not 3 mod 4\n"),
    (["lseries", "--a", "3", "--identity", "--N", "1"], 0,
     "residual 2.000e-01 tail bound 1.800e+00 (ok)\n", ""),
    (["product", "--a", "5"], 1, "", "mockchar: a = 5 is not 3 mod 4\n"),
    # malformed numbers are parse errors
    (["lseries", "--a", "3", "--N", "10,abc"], 2, "", "mockchar: bad integer 'abc'\n"),
    (["lseries", "--a", "3", "--s", "foo"], 2, "", "mockchar: bad complex number 'foo'\n"),
    (["product", "--paperfold", "--N", "x"], 2, "", "mockchar: bad integer 'x'\n"),
    (["distance", "--f", "kron:3", "--g", "char:-4", "--y", "abc"], 2, "",
     "mockchar: bad number 'abc'\n"),
    (["distance", "--f", "kron:x", "--g", "char:-4", "--y", "10"], 2, "",
     "mockchar: bad integer 'x'\n"),
    (["distance", "--f", "kron:3", "--g", "char:", "--y", "10"], 2, "",
     "mockchar: bad integer ''\n"),
]


@pytest.mark.parametrize("argv, code, out, err", EDGE_CASES, ids=[" ".join(c[0]) for c in EDGE_CASES])
def test_series_command_edges(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


class TestConfig:
    def test_config_file_and_flag_precedence(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "mockchar.conf"
        cfg.write_text("# comment\nmax_period = 64\nformat = json\n")
        monkeypatch.setenv("MOCKCHAR_CONFIG", str(cfg))
        code, out, _ = run(capsys, "classify", "--kron", "2")
        assert code == 0
        payload = json.loads(out)  # format came from the config file
        assert payload["verdict"] == "dirichlet-character"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("no_such_key = 3\n")
        code, _, err = run(capsys, "classify", "--kron", "2", "--config", str(cfg))
        assert code == 1 and "unknown key" in err


# the smallest argv each subcommand accepts
MINIMAL_ARGV = {
    "kron": ["kron", "3", "5"],
    "seq": ["seq", "--paperfold", "5"],
    "classify": ["classify", "--paperfold"],
    "fsm": ["fsm", "--paperfold"],
    "compare": ["compare", "--paperfold", "ref.txt"],
    "distance": ["distance", "--f", "kron:3", "--g", "char:-4", "--y", "10"],
    "lseries": ["lseries", "--a", "3", "--N", "10"],
    "product": ["product", "--paperfold", "--N", "10"],
    "f4check": ["f4check", "--a", "3"],
}
KERNEL_BOUNDS = [f for f in fields(ClassifyParams) if f.name.startswith("kernel_")]


def resolve(argv):
    return _resolve_config(build_parser().parse_args(argv))


def exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestBoundFlags:
    @pytest.mark.parametrize("bound", fields(ClassifyParams), ids=lambda f: f.name)
    def test_bound_reaches_classification(self, capsys, tmp_path, bound):
        # halved bounds still classify (3|n) as a mock character
        flag_value, file_value = bound.default // 2, bound.default // 2 + 1
        conf = tmp_path / "mockchar.conf"
        conf.write_text(f"{bound.name} = {file_value}\n")
        base = ["classify", "--kron", "3", "--format", "json"]
        by_flag = [bound.metadata["flag"], str(flag_value)]
        by_file = ["--config", str(conf)]
        for extra, value in ((by_flag, flag_value), (by_file, file_value)):
            assert resolve(base + extra).params == replace(DEFAULT_PARAMS, **{bound.name: value})
        # both: the flag wins over the file, up to the verdict
        expected = replace(DEFAULT_PARAMS, **{bound.name: flag_value})
        assert resolve(base + by_file + by_flag).params == expected
        code, out, _ = run(capsys, *base, *by_file, *by_flag)
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "mock-character"
        assert payload["verified_at"] == asdict(expected)

    @pytest.mark.parametrize("bound", KERNEL_BOUNDS, ids=lambda f: f.name)
    def test_kernel_bounds_reach_fsm(self, capsys, bound):
        argv = ["fsm", "--paperfold", bound.metadata["flag"], str(bound.default // 2)]
        assert getattr(resolve(argv).params, bound.name) == bound.default // 2
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("shape=circle") == 4

    def test_every_subcommand_takes_format_and_config(self, tmp_path):
        usage = build_parser().format_usage()
        assert "{" + ",".join(MINIMAL_ARGV) + "}" in usage
        conf = tmp_path / "mockchar.conf"
        conf.write_text("digits = 6\n")
        for argv in MINIMAL_ARGV.values():
            cfg = resolve(argv + ["--format", "json", "--config", str(conf)])
            assert cfg.format == "json" and cfg.digits == 6

    def test_bound_flags_only_where_read(self, capsys):
        # e.g. `kron 3 5 --max-period 5` and `lseries --a 3 --N 10 --kernel-window 5`
        takes = {"classify": fields(ClassifyParams), "fsm": KERNEL_BOUNDS}
        parser = build_parser()
        for name, argv in MINIMAL_ARGV.items():
            for bound in fields(ClassifyParams):
                line = argv + [bound.metadata["flag"], "5"]
                if bound in takes.get(name, ()):
                    parser.parse_args(line)
                else:
                    assert exit_code(line) == 2, line
                    err = capsys.readouterr().err
                    assert f"unrecognized arguments: {bound.metadata['flag']} 5" in err

    @pytest.mark.parametrize("bound", fields(ClassifyParams), ids=lambda f: f.name)
    def test_non_positive_bound_exit_1(self, capsys, tmp_path, bound):
        conf = tmp_path / "mockchar.conf"
        conf.write_text(f"{bound.name} = -3\n")
        for argv, value in (
            (["classify", "--paperfold", bound.metadata["flag"], "0"], 0),
            (["classify", "--paperfold", "--config", str(conf)], -3),
        ):
            assert run(capsys, *argv) == (
                1, "", f"mockchar: {bound.name} must be positive, got {value}\n"
            )


@pytest.mark.parametrize("argv", [
    ["seq", "--kron", "3", "--paperfold", "0..3"],
    ["seq", "--paperfold", "--file", "f.txt", "0..3"],
    ["classify", "--kron", "3", "--paperfold"],
    ["classify", "--kron", "3", "--file", "f.txt"],
    ["fsm", "--paperfold", "--kron", "3"],
    ["fsm", "--file", "f.txt", "--kron", "3"],
    ["compare", "--kron", "3", "--paperfold", "ref.txt"],
], ids=" ".join)
def test_source_flags_exclusive(capsys, argv):
    assert exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err
