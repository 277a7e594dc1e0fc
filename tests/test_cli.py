import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import monored
import monored.cli
import monored.reduction
import monored.serialize
import monored.transform
from monored.cli import main
from monored.reduction import reduce
from monored.resolution import principalize, weak_resolve
from monored.serialize import config_to_obj, load_config, trace_to_obj

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "components": ["x", "y", "u", "v"],
    "dim_p": 4,
    "mark": 5,
    "charts": [
        {
            "name": "U",
            "e_components": ["x", "y", "u", "v"],
            "n_vars": [],
            "p_components": [],
            "generators": [
                {"x": 2, "y": 3},
                {"x": 2, "v": 6},
                {"y": 4, "u": 5},
            ],
        }
    ],
}

LINES = {
    "components": ["x", "y"],
    "dim_p": 2,
    "mark": 1,
    "charts": [
        {
            "name": "U",
            "e_components": ["x", "y"],
            "n_vars": [],
            "p_components": [],
            "generators": [{"x": 1}, {"y": 1}],
        }
    ],
}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return str(path)


@pytest.fixture
def lines_file(tmp_path):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(LINES))
    return str(path)


class TestOrderSupport:
    def test_order(self, golden_file, capsys):
        assert main(["order", golden_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "monored report 1"
        assert "max_order: 5" in out

    def test_order_unit_ideal(self, tmp_path, capsys):
        obj = dict(LINES, charts=[dict(LINES["charts"][0], generators=[{}])])
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(obj))
        assert main(["order", str(path)]) == 0
        assert "max_order: 0" in capsys.readouterr().out

    @staticmethod
    def four_free_components(tmp_path, dim_p):
        obj = {
            "components": ["a", "b", "c", "d"],
            "dim_p": dim_p,
            "mark": 3,
            "charts": [
                {
                    "name": "U",
                    "e_components": ["a", "b", "c", "d"],
                    "n_vars": [],
                    "p_components": [],
                    "generators": [{"a": 2, "b": 4, "c": 3}, {"a": 3, "c": 5, "d": 3}],
                }
            ],
        }
        path = tmp_path / f"dim_p_{dim_p}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("command", ["order", "reduce"])
    @pytest.mark.parametrize("dim_p", [2, 3])
    def test_more_components_off_p_than_dim_p(self, tmp_path, capsys, command, dim_p):
        # four components none of which cuts P: the chart's distinguished
        # point would be no point of a P of dimension below 4
        path = self.four_free_components(tmp_path, dim_p)
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: ")
        assert f"4 components not cutting P, more than dim_p {dim_p}" in captured.err

    def test_dim_p_covering_the_free_components(self, tmp_path, capsys):
        assert main(["order", self.four_free_components(tmp_path, 4)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["max_order: 9", "chart U: order 9"]

    def test_support(self, golden_file, capsys):
        assert main(["support", golden_file]) == 0
        assert "{x,y,u,v}" in capsys.readouterr().out

    def test_empty_support(self, tmp_path, capsys):
        path = tmp_path / "high_mark.json"
        path.write_text(json.dumps(dict(GOLDEN, mark=50)))
        assert main(["support", str(path)]) == 0
        assert capsys.readouterr() == ("monored report 1\nsupport: empty\n", "")


class TestValidation:
    def test_unknown_component(self, tmp_path, capsys):
        obj = dict(GOLDEN)
        obj["charts"] = [dict(GOLDEN["charts"][0], generators=[{"q": 1}])]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["order", str(path)]) == 1
        assert "charts[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"mark": 0}, "mark"),
            ({"mark": True}, "mark"),
            ({"dim_p": True}, "dim_p"),
            ({"charts": [dict(GOLDEN["charts"][0], generators=[{"x": True}])]}, "exponent"),
            ({"charts": [dict(GOLDEN["charts"][0], e_components=[["x"]])]}, "e_components"),
            ({"charts": [dict(GOLDEN["charts"][0], p_components=[{"x": 1}])]}, "p_components"),
        ],
        ids=["mark-zero", "mark-true", "dim_p-true", "exponent-true", "e-list", "p-object"],
    )
    def test_bad_mark(self, tmp_path, capsys, changes, field):
        obj = dict(GOLDEN, **changes)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["order", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert field in err

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"charts": [dict(GOLDEN["charts"][0], p_components=["u"])]},
                "chart 'U': generator uses a component cutting P",
            ),
            (
                {"charts": [dict(GOLDEN["charts"][0], e_components=["x", "y", "v"], p_components=["u"])]},
                "chart 'U': p_components not present in the chart",
            ),
            ({"charts": [GOLDEN["charts"][0]] * 2}, "duplicate chart 'U'"),
            ({"components": ["x", "y", "u", "v", "x"]}, "registry names must be unique"),
        ],
        ids=["generator-cuts-p", "p-outside-e", "duplicate-chart", "duplicate-component"],
    )
    def test_rule_left_to_the_constructors(self, tmp_path, capsys, changes, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(GOLDEN, **changes)))
        assert main(["order", str(path)]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize(
        "field, names, message",
        [
            ("e_components", ["x", "y", "x", "u", "v"], "component 'x' listed twice"),
            ("p_components", ["u", "u"], "component 'u' listed twice"),
            ("n_vars", ["n", "m", "n"], "a label is listed twice"),
        ],
    )
    def test_name_listed_twice_in_a_chart(self, tmp_path, capsys, field, names, message):
        """A repeated name is refused, not collapsed: the trace's input
        would otherwise differ from the file.  Listed once, each document
        is an input."""
        chart = dict(GOLDEN["charts"][0], generators=[{"x": 2, "y": 3}, {"x": 2, "v": 6}])
        path = tmp_path / "in.json"
        path.write_text(json.dumps(dict(GOLDEN, charts=[dict(chart, **{field: list(dict.fromkeys(names))})])))
        assert main(["reduce", str(path)]) == 0
        capsys.readouterr()
        path.write_text(json.dumps(dict(GOLDEN, charts=[dict(chart, **{field: names})])))
        assert main(["reduce", str(path)]) == 1
        assert capsys.readouterr().err == f"validation error: charts[0].{field}: {message}\n"

    @pytest.mark.parametrize("exponent", [-1, -6, 2.0, "2"])
    def test_bad_exponent(self, tmp_path, capsys, exponent):
        """Exponents are checked where the document enters: the engine
        checks no monomial it derives."""
        chart = dict(GOLDEN["charts"][0], generators=[{"x": exponent, "y": 3}, {"v": 6}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(GOLDEN, charts=[chart])))
        assert main(["reduce", str(path)]) == 1
        assert capsys.readouterr().err == "validation error: charts[0].generators[0]: bad exponent for 'x'\n"

    def test_zero_exponent_is_an_absent_component(self, tmp_path, capsys):
        outs = []
        for gens in ([{"x": 0, "y": 3}, {"v": 6}], [{"y": 3}, {"v": 6}]):
            path = tmp_path / "in.json"
            path.write_text(json.dumps(dict(GOLDEN, charts=[dict(GOLDEN["charts"][0], generators=gens)])))
            assert main(["reduce", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_missing_file(self, capsys):
        assert main(["order", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("command", [["order"], ["replay", "--trace"]], ids=["order", "replay"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(command + [str(path)]) == 1
        assert capsys.readouterr().err.startswith("validation error: ")

    @pytest.mark.parametrize(
        "old, new, key",
        [('{"x": 1}', '{"x": 1, "x": 3}', "x"), ('"mark": 1', '"mark": 9, "mark": 2', "mark")],
        ids=["generator", "mark"],
    )
    def test_repeated_key(self, tmp_path, capsys, old, new, key):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(LINES).replace(old, new))
        assert main(["reduce", str(path)]) == 1
        assert capsys.readouterr().err == f"validation error: {path}: invalid JSON: key {key!r} repeated in one object\n"

    @pytest.mark.parametrize("command", [["order"], ["replay", "--trace"]], ids=["order", "replay"])
    def test_nesting_too_deep(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(command + [str(path)]) == 1
        assert capsys.readouterr().err == f"validation error: {path}: invalid JSON: nested too deeply to read\n"

    @pytest.mark.parametrize("target", ["missing/trace.json", "directory"], ids=["no-parent", "directory"])
    def test_unwritable_out(self, golden_file, tmp_path, capsys, target):
        out_dir = tmp_path / "out"
        (out_dir / "directory").mkdir(parents=True)
        assert main(["reduce", golden_file, "--out", str(out_dir / target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation error: cannot write ")
        assert "Traceback" not in err
        assert [p.relative_to(out_dir) for p in out_dir.rglob("*")] == [Path("directory")]

    def test_round_trip_identity(self):
        cfg = load_config(GOLDEN)
        again = load_config(config_to_obj(cfg))
        assert cfg == again


# One chart whose companions sum single-generator summands with many
# different marks.  Marked with the lcm, no sum here needs a power above 60;
# marked with the product, one needed the power 782 369 280.
HUGE_COFACTOR = {
    "components": ["a", "b", "c"],
    "dim_p": 3,
    "mark": 8,
    "charts": [
        {
            "name": "U",
            "e_components": ["a", "b", "c"],
            "generators": [
                {"a": 5, "b": 2, "c": 3},
                {"a": 4, "b": 2, "c": 5},
                {"a": 8, "b": 1, "c": 3},
                {"a": 3, "b": 10, "c": 6},
            ],
        }
    ],
}

# Draw (5, 229) at exponents and marks <=10.  When sums raised whole ideals
# to powers, the mixed products gave its nested companions about 190
# summands with marks in the millions, whose lcm left the 64-bit checked
# range.  With each generator raised on its own, no sum mark exceeds 48.
OVERFLOWING_COMPANION = {
    "components": ["a", "b", "c"],
    "dim_p": 3,
    "mark": 9,
    "charts": [
        {
            "name": "U",
            "e_components": ["a", "b", "c"],
            "generators": [
                {"a": 1, "b": 6, "c": 6},
                {"a": 8, "b": 4, "c": 4},
                {"a": 10, "b": 2, "c": 5},
            ],
        }
    ],
}

# Limits of the children that reduce and replay OVERFLOWING_COMPANION: a
# reduction whose companions grew without bound again fails under them
# instead of exhausting the machine.  Writing the trace takes about 2.3 s of
# CPU and 45 MB, replaying it about 1.5 s and 70 MB.
CHILD_ADDRESS_SPACE = 2**30
CHILD_CPU_SECONDS = 5


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))


class TestBlowup:
    def test_golden_blowup(self, golden_file, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["blowup", golden_file, "--center", "x,y,u,v", "--out", out_path]) == 0
        trace = json.loads(Path(out_path).read_text())
        assert trace["format"] == "monored-trace-2"
        (record,) = trace["records"]
        assert record["center"] == ["x", "y", "u", "v"]
        children = record["outcomes"][0]["children"]
        v_child = children[3]
        assert v_child["chart"] == "U/v"
        assert v_child["generators"] == [
            {"x": 2, "y": 3},
            {"x": 2, "exc1": 3},
            {"y": 4, "u": 5, "exc1": 4},
        ]
        assert v_child["rendered"] == "x̄²ȳ³, x̄²v̄³, ȳ⁴ū⁵v̄⁴"

    @pytest.mark.parametrize("center", ["x,y,u,v", "v, u,,y ,x"])
    def test_echoes_parsed_center(self, golden_file, capsys, center):
        assert main(["blowup", golden_file, "--center", center]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "blow-up at {u,v,x,y}: stage 1"

    def test_empty_center(self, golden_file, capsys):
        assert main(["blowup", golden_file, "--center", ","]) == 1
        assert capsys.readouterr() == ("", "validation error: --center needs at least one component name\n")

    def test_non_permissible_exit_code(self, golden_file, capsys):
        assert main(["blowup", golden_file, "--center", "x"]) == 2
        assert "not permissible" in capsys.readouterr().err


class TestReduceCommand:
    def test_reduce_trace_first_record(self, golden_file, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["reduce", golden_file, "--out", out_path]) == 0
        trace = json.loads(Path(out_path).read_text())
        first = trace["records"][0]
        assert first["center"] == ["x", "y", "u", "v"]
        v_child = first["outcomes"][0]["children"][3]
        assert v_child["rendered"] == "x̄²ȳ³, x̄²v̄³, ȳ⁴ū⁵v̄⁴"
        assert trace["final"]["summary"]["steps"] == len(trace["records"])

    def test_replay_identical(self, golden_file, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["reduce", golden_file, "--out", out_path]) == 0
        assert main(["replay", "--trace", out_path]) == 0
        assert "identical" in capsys.readouterr().out

    def test_replay_detects_tampering(self, golden_file, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        main(["reduce", golden_file, "--out", out_path])
        trace = json.loads(Path(out_path).read_text())
        trace["final"]["summary"]["steps"] += 1
        tampered = str(tmp_path / "tampered.json")
        Path(tampered).write_text(json.dumps(trace))
        assert main(["replay", "--trace", tampered]) == 2

    @pytest.mark.parametrize(
        "tamper, field",
        [
            (lambda trace: trace.update(records=5), "records"),
            (lambda trace: trace["records"][0].update(center=[["x"]]), "records[0]"),
            (lambda trace: trace.pop("final"), "final"),
        ],
        ids=["non-list-records", "list-in-center", "no-final"],
    )
    def test_replay_rejects_non_list_records(self, golden_file, tmp_path, capsys, tamper, field):
        out_path = str(tmp_path / "trace.json")
        main(["reduce", golden_file, "--out", out_path])
        capsys.readouterr()
        trace = json.loads(Path(out_path).read_text())
        tamper(trace)
        bad = str(tmp_path / "bad.json")
        Path(bad).write_text(json.dumps(trace))
        assert main(["replay", "--trace", bad]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("validation error: ")
        assert field in err

    def test_replay_without_input(self, tmp_path, capsys):
        path = tmp_path / "no_input.json"
        path.write_text(json.dumps({"format": "monored-trace-2", "final": {}}))
        assert main(["replay", "--trace", str(path)]) == 1
        assert capsys.readouterr() == ("", "validation error: trace file carries no input section\n")

    def test_reduce_single_generator_companion_power(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_COFACTOR))
        out_path = str(tmp_path / "trace.json")
        assert main(["reduce", str(path), "--out", out_path]) == 0
        assert "order reduction: 4 blow-ups" in capsys.readouterr().out
        assert main(["replay", "--trace", out_path]) == 0

    def test_reduce_formerly_overflowing_companion_finishes(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(OVERFLOWING_COMPANION))
        out_path = str(tmp_path / "trace.json")
        src = str(Path(monored.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "monored.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                preexec_fn=_limit_child,
                timeout=120,
            )

        proc = run("reduce", str(path), "--out", out_path)
        assert proc.returncode == 0, proc.stderr
        assert "order reduction: 1655 blow-ups" in proc.stdout
        proc = run("replay", "--trace", out_path)
        assert proc.returncode == 0, proc.stderr
        assert "replay: final state identical" in proc.stdout

    def test_replay_format_1(self, capsys):
        # written by the blowup command when traces were monored-trace-1
        path = DATA / "worked_blowup_trace1.json"
        assert json.loads(path.read_text())["format"] == "monored-trace-1"
        assert main(["replay", "--trace", str(path)]) == 0
        assert "replay: final state identical" in capsys.readouterr().out


class TestPrincipalizeResolve:
    def test_principalize(self, lines_file, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["principalize", lines_file, "--out", out_path]) == 0
        trace = json.loads(Path(out_path).read_text())
        assert trace["final"]["summary"]["principal"] is True
        assert trace["cosupport"] == [{"chart": "U", "vanishing": ["x", "y"]}]

    def test_prune_drops_untouched_unit_chart_from_report_only(self, tmp_path, capsys):
        obj = {
            "components": ["a", "b", "w"],
            "dim_p": 2,
            "mark": 1,
            "charts": [
                {"name": "U", "e_components": ["a", "b"], "generators": [{"a": 2, "b": 1}, {"b": 3}]},
                {"name": "Q", "e_components": ["w"], "generators": [{}]},
            ],
        }
        path = tmp_path / "with_unit.json"
        path.write_text(json.dumps(obj))
        reports, traces = {}, {}
        for flags in ([], ["--prune"]):
            out_path = tmp_path / f"trace{len(flags)}.json"
            assert main(["principalize", str(path), "--out", str(out_path)] + flags) == 0
            reports[bool(flags)] = capsys.readouterr().out.splitlines()
            traces[bool(flags)] = out_path.read_bytes()
        assert "chart Q: total transform [{}]" in reports[False]
        assert not any(line.startswith("chart Q:") for line in reports[True])
        assert traces[True] == traces[False]

    def test_resolve(self, tmp_path, capsys):
        obj = {
            "components": ["x", "y", "w"],
            "dim_p": 3,
            "mark": 1,
            "charts": [
                {
                    "name": "U",
                    "e_components": ["x", "y", "w"],
                    "n_vars": [],
                    "p_components": [],
                    "generators": [{"x": 1}, {"y": 1}],
                }
            ],
        }
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(obj))
        out_path = str(tmp_path / "trace.json")
        assert main(["resolve", str(path), "--out", out_path]) == 0
        trace = json.loads(Path(out_path).read_text())
        assert trace["separation"]["stage"] == 1
        charts = {c["chart"]: c["strict"] for c in trace["separation"]["charts"]}
        assert charts["U/x"] == [{"y": 1}]
        assert charts["U/y"] == [{"x": 1}]

    def test_resolve_separates_on_exceptional_path(self, tmp_path, capsys):
        obj = {
            "components": ["a", "b", "c", "d"],
            "dim_p": 3,
            "mark": 1,
            "charts": [
                {
                    "name": "U",
                    "e_components": ["a", "b", "c", "d"],
                    "p_components": ["a"],
                    "generators": [{"b": 2, "c": 1, "d": 3}, {"b": 1, "c": 6, "d": 6}],
                }
            ],
        }
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(obj))
        out_path = str(tmp_path / "trace.json")
        assert main(["resolve", str(path), "--out", out_path]) == 0
        trace = json.loads(Path(out_path).read_text())
        assert trace["separation"]["stage"] == 3
        charts = {c["chart"]: c["strict"] for c in trace["separation"]["charts"]}
        assert charts["U/c/exc1/d"] == [{"b": 1}]

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # the report and trace of tower(50), about 0.8 MB, outrun the pipe
        # buffer, so writing goes on after the reader has gone
        path = tmp_path / "tower50.json"
        path.write_text(json.dumps(dict(LINES, charts=[dict(LINES["charts"][0], generators=[{"x": 50}, {"y": 3}])])))
        src = str(Path(monored.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen(
            [sys.executable, "-m", "monored.cli", "principalize", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            preexec_fn=_limit_child,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (first, proc.returncode, err) == (b"monored report 1\n", 1, b"")

    def test_resolve_codimension_one_rejected(self, tmp_path, capsys):
        obj = dict(LINES, charts=[dict(LINES["charts"][0], generators=[{"x": 2}])])
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(obj))
        assert main(["resolve", str(path)]) == 1


class TestCheckLambda:
    def test_runs_clean(self, capsys):
        assert main(["check-lambda", "--primes", "2,3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "frobenius_lift_check" in out and "ok" in out

    def test_seed_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("MONORED_SEED", "9")
        assert main(["check-lambda", "--primes", "2"]) == 0
        assert "seed 9" in capsys.readouterr().out

    @pytest.mark.parametrize("primes", ["a", "", "4"], ids=["not-integer", "empty", "not-prime"])
    def test_bad_primes(self, capsys, primes):
        assert main(["check-lambda", "--primes", primes, "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error: " in captured.err

    def test_bad_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MONORED_SEED", "abc")
        assert main(["check-lambda", "--primes", "2"]) == 1
        assert "MONORED_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("primes", ["3", "7"])
    def test_primes_without_two(self, capsys, primes):
        # only p = 2 witnesses the torsion of (2, x), so that line runs at 2
        assert main(["check-lambda", "--primes", primes, "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.endswith(": ok") for line in lines) == 5

    def test_a_failed_identity_exits_2_after_every_line(self, monkeypatch, capsys):
        import monored.arithmetic

        monkeypatch.setattr(monored.arithmetic, "rees_lift_check", lambda p, gens, element: False)
        assert main(["check-lambda", "--primes", "2,3", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 7
        assert [line for line in lines if line.endswith(": FAILED")] == [
            "rees_lift_check on monomial Rees elements: FAILED"
        ]
        assert sum(line.endswith(": ok") for line in lines) == 4
        assert captured.err.startswith("contract violation: a Frobenius-lift identity failed")

    def test_prime_past_the_budget_exits_at_once(self):
        def one_cpu_second():
            _limit_child()
            resource.setrlimit(resource.RLIMIT_CPU, (1, 1))

        src = str(Path(monored.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "monored.cli", "check-lambda", "--primes", "2,101"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=one_cpu_second,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("contract violation: prime 101 is above 13")

    def test_largest_input_runs_within_its_budget(self):
        # all six primes up to cli.MAX_PRIME took 0.7-1.3 s of child CPU
        # (Python 3.11, 2 CPUs); the budget is about 3 times that
        def three_cpu_seconds():
            _limit_child()
            resource.setrlimit(resource.RLIMIT_CPU, (3, 3))

        src = str(Path(monored.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "monored.cli", "check-lambda", "--primes", "2,3,5,7,11,13", "--seed", "0"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=three_cpu_seconds,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 7 and all(line.endswith(": ok") for line in lines[2:])

    def test_repeated_prime_exits_at_once(self):
        # the budget bounds each prime and, with repeats refused, the list:
        # at most the six primes up to cli.MAX_PRIME
        def one_cpu_second():
            _limit_child()
            resource.setrlimit(resource.RLIMIT_CPU, (1, 1))

        src = str(Path(monored.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "monored.cli", "check-lambda", "--primes", "13,13"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=one_cpu_second,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("validation error: --primes lists a prime twice: [13, 13]")


# (x^5, y^3) with mark 1: principalized and resolved in a few dozen blow-ups
TOWER = dict(
    LINES, charts=[dict(LINES["charts"][0], generators=[{"x": 5}, {"y": 3}])]
)

LIBRARY_RUNS = {
    "principalize": principalize,
    "resolve": weak_resolve,
    "reduce": reduce,
    "blowup": lambda cfg: monored.transform.blow_up_global(cfg, frozenset(range(4))),
}


class TestTracesFromTheRun:
    """Trace-writing commands render each step as the engine makes it:
    nothing is replayed to write the trace."""

    @pytest.mark.parametrize(
        "command, doc, flags",
        [
            ("principalize", TOWER, []),
            ("resolve", TOWER, []),
            ("reduce", GOLDEN, []),
            ("blowup", GOLDEN, ["--center", "x,y,u,v"]),
        ],
    )
    def test_no_second_blowup_pass(self, command, doc, flags, tmp_path, monkeypatch, capsys):
        """Every blow-up goes through `BlowUpRun.blow_up_along`: the
        command makes as many as the library run does."""
        blow_up_along = monored.transform.BlowUpRun.blow_up_along
        calls, written = [], []

        def counted(run, centres):
            records = blow_up_along(run, centres)
            calls.extend(rec.center for rec in records)
            return records

        def replaying_writer(*args, **kwargs):
            written.append(args)
            return trace_to_obj(*args, **kwargs)

        monkeypatch.setattr(monored.transform.BlowUpRun, "blow_up_along", counted)
        for module in (monored.serialize, monored.cli):
            monkeypatch.setattr(module, "trace_to_obj", replaying_writer, raising=False)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "trace.json"
        assert main([command, str(path), *flags, "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["records"]
        assert written == []
        cli_calls, calls[:] = len(calls), []
        LIBRARY_RUNS[command](load_config(doc))
        assert cli_calls == len(calls) > 0
