import json

import pytest

import rashenum.cli
import rashenum.posteval
from rashenum.cli import main
from conftest import count_enumerations


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    assert main(["synth", "--samples", "40", "--features", "5", "--seed", "9",
                 "--out", str(path)]) == 0
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_reports_tree_and_cost(self, capsys, data_file):
        code, out, err = run(capsys, ["solve", "--data", str(data_file),
                                      "--depth", "2"])
        assert code == 0
        record = json.loads(out)
        assert {"tree", "total_cost", "num_leaves"} <= set(record)
        assert "summary" in err

    def test_pure_dataset_single_leaf(self, capsys, tmp_path):
        path = tmp_path / "pure.txt"
        path.write_text("1 0 1\n1 1 0\n1 1 1\n")
        code, out, _ = run(capsys, ["solve", "--data", str(path),
                                    "--depth", "2", "--lambda", "0.05"])
        record = json.loads(out)
        assert record["num_leaves"] == 1
        assert record["total_cost"] == pytest.approx(0.05)


class TestEnumerate:
    def test_requires_stopping_rule(self, capsys, data_file):
        code, _, err = run(capsys, ["enumerate", "--data", str(data_file)])
        assert code == 1
        assert "--epsilon" in err

    def test_jsonl_sorted_and_counts_match_count_format(self, capsys,
                                                        data_file):
        code, out, _ = run(capsys, ["enumerate", "--data", str(data_file),
                                    "--depth", "2", "--epsilon", "0.5"])
        assert code == 0
        objectives = [json.loads(line)["objective"]
                      for line in out.splitlines()]
        assert objectives == sorted(objectives)

        code, out2, _ = run(capsys, ["enumerate", "--data", str(data_file),
                                     "--depth", "2", "--epsilon", "0.5",
                                     "--out-format", "count"])
        assert code == 0
        counts = [json.loads(line)["count"] for line in out2.splitlines()]
        assert sum(counts) == len(objectives)

    def test_groups_format_carries_trees(self, capsys, data_file):
        code, out, _ = run(capsys, ["enumerate", "--data", str(data_file),
                                    "--depth", "1", "--epsilon", "1.0",
                                    "--out-format", "groups"])
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert record["count"] == len(record["trees"])

    def test_max_trees_caps_jsonl_lines(self, capsys, data_file):
        code, out, _ = run(capsys, ["enumerate", "--data", str(data_file),
                                    "--depth", "2", "--max-trees", "4"])
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_csv_format(self, capsys, data_file):
        code, out, _ = run(capsys, ["enumerate", "--data", str(data_file),
                                    "--depth", "1", "--epsilon", "0.5",
                                    "--out-format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "rank,total_cost"
        assert lines[1].startswith("1,")

    def test_deterministic_output(self, tmp_path, data_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            assert main(["enumerate", "--data", str(data_file), "--depth",
                         "2", "--epsilon", "0.5", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOtherCommands:
    def test_find_multiplier_table(self, capsys, data_file):
        code, out, _ = run(capsys, ["find-multiplier", "--data",
                                    str(data_file), "--depth", "2",
                                    "--powers", "1,2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dataset,target,epsilon,achieved_count"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[1]) for r in rows] == [10, 100]
        eps = [float(r[2]) for r in rows]
        assert eps[0] <= eps[1] + 1e-12

    def test_lofo_csv(self, capsys, data_file):
        code, out, _ = run(capsys, ["lofo", "--data", str(data_file),
                                    "--depth", "2", "--max-trees", "30"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feature,score,rank"
        assert len(lines) == 6  # five features

    def test_pareto_front(self, capsys, data_file):
        code, out, err = run(capsys, ["pareto", "--data", str(data_file),
                                      "--depth", "2", "--epsilon", "0.3",
                                      "--sensitive-feature", "0",
                                      "--delta", "1.0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,accuracy,discrimination,leaves"
        assert any(line.startswith("front,") for line in lines[1:])
        assert "constrained=" in err

    def test_pareto_delta_searches_capped_set(self, capsys, tmp_path):
        path = tmp_path / "s40.txt"
        assert main(["synth", "--samples", "40", "--features", "5",
                     "--seed", "0", "--out", str(path)]) == 0
        args = ["--data", str(path), "--depth", "2", "--max-trees", "1"]
        code, out, _ = run(capsys, ["enumerate", *args,
                                    "--out-format", "count"])
        assert code == 0
        last_cost = json.loads(out.splitlines()[-1])["total_cost"]
        code, _, err = run(capsys, ["pareto", *args, "--sensitive-feature",
                                    "0", "--delta", "0.01"])
        assert code == 0
        found = err.split("constrained=", 1)[1].strip()
        assert (found == "exhausted"
                or json.loads(found)["total_cost"] <= last_cost + 1e-12)

    def test_pareto_delta_builds_one_engine(self, capsys, data_file,
                                            monkeypatch):
        built = count_enumerations(monkeypatch, rashenum.cli,
                                   rashenum.posteval)
        code, _, err = run(capsys, ["pareto", "--data", str(data_file),
                                    "--depth", "2", "--epsilon", "0.3",
                                    "--sensitive-feature", "0",
                                    "--delta", "0.05"])
        assert code == 0
        assert "constrained=" in err
        assert len(built) == 1

    def test_synth_deterministic(self, capsys):
        code, out1, _ = run(capsys, ["synth", "--samples", "20", "--features",
                                     "3", "--seed", "4"])
        code2, out2, _ = run(capsys, ["synth", "--samples", "20",
                                      "--features", "3", "--seed", "4"])
        assert code == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 20


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--data", "/no/such/file",
                                    "--depth", "2"])
        assert code == 2
        assert "data error" in err

    def test_malformed_data_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 2\n")
        code, _, err = run(capsys, ["solve", "--data", str(path),
                                    "--depth", "2"])
        assert code == 2

    def test_non_finite_regression_label_is_data_error(self, capsys,
                                                       tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0.5 0 1\nnan 1 0\n1.5 1 1\n-0.5 0 0\n")
        for command, extra in (("enumerate", ["--max-trees", "10"]),
                               ("solve", []), ("lofo", [])):
            code, out, err = run(capsys, [command, "--data", str(path),
                                          "--task", "regression",
                                          "--depth", "2", *extra])
            assert code == 2, command
            assert "labels must be finite" in err
            assert out == ""

    def test_unknown_flag_is_usage_error(self, capsys, data_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--data", str(data_file), "--bogus"])
        assert exc.value.code == 1

    def test_nan_epsilon_is_usage_error(self, capsys, data_file):
        code, out, err = run(capsys, ["enumerate", "--data", str(data_file),
                                      "--depth", "2", "--epsilon", "nan"])
        assert code == 1
        assert "epsilon must be finite" in err
        assert out == ""

    def test_bad_powers_is_usage_error(self, capsys, data_file):
        for powers in ("x", ","):
            code, out, _ = run(capsys, ["find-multiplier", "--data",
                                        str(data_file), "--depth", "1",
                                        "--powers", powers])
            assert code == 1
            assert out == ""

    def test_negative_solve_depth_is_usage_error(self, capsys, data_file):
        code, out, err = run(capsys, ["solve", "--data", str(data_file),
                                      "--depth", "-1"])
        assert code == 1
        assert "depth must be >= 0" in err
        assert out == ""

    @pytest.mark.parametrize("delta", ["nan", "-1", "inf"])
    def test_bad_pareto_delta_is_usage_error(self, capsys, data_file, delta):
        code, out, err = run(capsys, ["pareto", "--data", str(data_file),
                                      "--depth", "2", "--epsilon", "0.3",
                                      "--sensitive-feature", "0",
                                      "--delta", delta])
        assert code == 1
        assert "delta must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("argv,message", [
        (["enumerate"], "enumerate needs --epsilon or --max-trees"),
        (["pareto", "--sensitive-feature", "0"],
         "pareto needs --epsilon or --max-trees"),
        (["lofo", "--max-trees", "0"], "--max-trees must be >= 1"),
        (["enumerate", "--max-trees", "0"], "--max-trees must be >= 1")],
        ids=["enumerate-no-stop", "pareto-no-stop", "lofo-max-trees",
             "enumerate-max-trees"])
    def test_usage_error_names_flags(self, capsys, data_file, argv, message):
        code, out, err = run(capsys, [argv[0], "--data", str(data_file),
                                      "--depth", "2", *argv[1:]])
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("bad", [["--lambda", "inf"], ["--powers", "-1"],
                                     ["--depth", "-1"]])
    def test_find_multiplier_usage_error_writes_nothing(self, capsys,
                                                        data_file, bad):
        code, out, _ = run(capsys, ["find-multiplier", "--data",
                                    str(data_file), "--depth", "1", *bad])
        assert code == 1
        assert out == ""
