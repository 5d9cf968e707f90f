"""Command-line behavior: exit codes, JSON/CSV payloads, determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import galspec
from galspec.cli import main
from galspec.family import load_manifest
from galspec.grunwald import local_model
from galspec.padic import padic_shape
from galspec.permgrp import CycleType
from test_family import cubic_manifest
from test_grunwald import ninth_manifest, p_integral_model


def run(capsys, *argv):
    """Invoke the CLI, returning (exit code, parsed stdout JSON or None)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def twobranch_file(tmp_path):
    manifest = {
        "name": "twobranch",
        "poly": "(X^2 - t + s)*(X^2 - t + 2*s)",
        "group_generators": ["(1 2)", "(3 4)"],
        "branch_points": [
            {
                "location": "s",
                "e": 2,
                "inertia_generator": "(1 2)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 + s",
            },
            {
                "location": "2*s",
                "e": 2,
                "inertia_generator": "(3 4)",
                "decomposition_generators": ["(1 2)", "(3 4)"],
                "residue_subextension": "X^2 - s",
            },
        ],
    }
    path = tmp_path / "twobranch.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def s7claim_file(tmp_path):
    """psl32's family with its group declared as S7, a strict overgroup."""
    raw = json.loads(resources.files("galspec").joinpath("data/psl32.json").read_text())
    raw["group_generators"] = ["(1 2)", "(1 2 3 4 5 6 7)"]
    raw["name"] = "s7claim"
    path = tmp_path / "s7claim.json"
    path.write_text(json.dumps(raw))
    return str(path)


def readme_commands() -> list:
    """argv of every galspec line in the README's Command line block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("galspec ")]


# (exit code, sha256 of stdout, sha256 of stderr) of CLI commands, so that
# a change to the bytes the CLI prints is a deliberate one: every command
# of the README's block, and more runs of each subcommand, an exit 1, an
# exit 2 and a census that refuses a t0 included
PINNED_COMMANDS = {
    "branch --manifest psl32 --s0 1": (
        0,
        "49d055b27c0fa17501dfa2237f5c8c69254345cca228fca095f805754ed1a254",
        "11c5204a54f2cf370feb432404b34bd793dc5e63df1ac49fd473f8eb6b5c5c7d",
    ),
    "badprimes --manifest psl32 --s0 1 --bound 3000": (
        0,
        "9903b8cc2dd1415e09b404d4c37d8624e178fd3aef171009d4f4928be4d41e6f",
        "eefa6750617eea470fcc072337eb7949087d489042a29870573ec20510f4c127",
    ),
    "predict --manifest x2mt --t0 12 --p 3": (
        0,
        "53fee55f0c8553e41f4b361d59393dbb263d69e190f1d4273b8dbe65ac8d99dd",
        "c5bdc183f7fc63485d369550fca3f4d049b3ea377b852035f4d7ad66598275fd",
    ),
    "predict --manifest psl32 --s0 1 --t0 1/11 --p 11": (
        0,
        "2c928579fb691a4b3f6919aec5da5bc2440210e1efe2e4459e26e270e609c041",
        "1607446a8cd7610df90fa59da955613a01028e45a5e4b60b5beec2fac8f5d3fa",
    ),
    "search --manifest psl32 --cond p=7,branch=inf,d=1,frob=2": (
        0,
        "03b3a9017ea49f1aaf266dccbbfd7daaad272275417cf04edfb9b7eef9995360",
        "d9c3a018a2c3112352b5ca9a506f96cf163f17271ec678663870e35dbbd7fbe0",
    ),
    "verify --manifest x2mt --t0 57 --cond p=3,branch=0,d=1 --cond p=7,unram,type=1,1 --cond p=11,unram,type=2": (
        0,
        "051aec08ab333772dab703e2b79317c6a69e37b89e430827ff40ba7c36ebaf36",
        "9048e43a9dae21900d1c9569ba5e000e757970ce312330cf0f41d7eb86e1b953",
    ),
    "identify --manifest psl32 --s0 1 --samples 300 --seed 0": (
        0,
        "a436736cecf03284123df959bbdb7f53de24c9d407fc408345437ab94d8824fe",
        "53449b06393266994f910caf8cab94b982c51bf39f9dab40659fcb47033b2c51",
    ),
    "census --manifest x3mt --t-range=-500..500 --p-max 97 --out census.csv": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b04012a3b30cb4103f3b37bb07dabdf3d0d5eb4fde17541eaf0019a48b3cec6e",
    ),
    "branch --manifest psl32": (
        0,
        "c62d23d770c7e4e5fe59ef3619fda5f8377c6d3585fe96f8f545af88e1d84920",
        "11c5204a54f2cf370feb432404b34bd793dc5e63df1ac49fd473f8eb6b5c5c7d",
    ),
    "branch --manifest x3mt": (
        0,
        "5fed52651dc13de71f1a9b566b7803ce818c5009734dad5a24b698a97f8a1d64",
        "fc771f576ae4b00d501ec205aa8963a5a5b3dba532191db31c2330eda8795b2d",
    ),
    "branch --manifest x2mt --s0 3": (
        0,
        "224b507e5518b7666a470711038d29efdec4e535169882222d991e6b7c44f558",
        "73dc46de60079f4ab769de12526e7cc3b709f656aaf5507fc9f3bcc85e844c87",
    ),
    "predict --manifest psl32 --t0 1 --p 11": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c66fd657b2776e9f82d706917927132e8d08a5dfea0f14445346aec45c52c776",
    ),
    "search --manifest x3mt --cond p=7,branch=0,d=1": (
        0,
        "e048c44f79ce579fae7d65577c18bf28d41626caf436f3779f079d7cef077d7e",
        "335122077ca0c828597b67511d09d3d4323bccee78dea65f14a25950750ae79f",
    ),
    "search --manifest x3mt --cond p=13,unram,type=3": (
        0,
        "9816130bf1244cb81824527824931708ef532c786d0e2301367f7c19cba03945",
        "a4227bb219af69a1d202abf1840777de410c4c63cd9c9ffb46af689a9c8c66ee",
    ),
    # exit 1, unrealizable: 5 is not 1 mod 3, so cubing permutes the units
    # mod 5 and X^3 - u has one root mod 5 for every 5-adic unit u; every
    # other t0 ramifies at 5 or rescales to that case
    "search --manifest x3mt --cond p=5,unram,type=1,1,1": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a92e4fe30324e3bf87be4cc710f03438cfa1e19f2c3ef933f2bb2653f87cdbc9",
    ),
    "verify --manifest psl32 --s0 1 --t0 1/11 --cond p=11,branch=inf,d=1,frob=2 --n-id 50": (
        0,
        "9917e7d213cadc209f1a14c7212d7be210002a39c5d0ebc26f5243a3d8785379",
        "946c1b12ea280e1cf64ec7c8318c62bec97abf4b4cbf58cb7ebe0f0be5d8ab5f",
    ),
    "identify --manifest psl32 --s0 2 --seed 3": (
        0,
        "a068832cca247ed53075348d49339263c9424cd66274393ef33dbeca087f1325",
        "381a4461646b49cb9068c5ba4d22e75be8449a3ac2fd356457f41dc53db4a8e8",
    ),
    "census --manifest x3mt --t-range=-200..200 --p-max 97": (
        0,
        "336277ef17d479b39578098b748c9f1d834b95e90f942be4f3e92569c8c951d2",
        "471a168ecd4510e7ec22072cf751fde8640f2860def5503938a5b33cf6df708f",
    ),
    "census --manifest x2mt --t-range=-200..200 --p-max 97": (
        0,
        "26683ad19cf52b6f03ec0e23efd47ea3066582d539825c0de7af30259a60ee8f",
        "f7d3fdd1cd85c291578b855118b862be2206c8607877c7989e18aef3de77891a",
    ),
    "census --manifest psl32 --s0 3/7 --t-range=-3..3 --p-max 60": (
        0,
        "71a132058da7f785b273dfdc7dad20789c0f08efa6859e3751525c89dbedc0fe",
        "75c1b9d5d8f452f2cfca108f5484fa232a5362aa8df80cec8014d1d2450a46d1",
    ),
}
# census.csv as the README's census command writes it
README_CENSUS_CSV = "37f0a6904a988eaa1179c804054981abd340d2ab9310fce051b4a988680c0042"


class TestManifestLoading:
    def test_builtin_bare_name(self, capsys):
        code, _ = run(capsys, "branch", "--manifest", "x2mt")
        assert code == 0

    def test_builtin_with_json_suffix(self, capsys):
        code, _ = run(capsys, "branch", "--manifest", "psl32.json")
        assert code == 0

    def test_file_path(self, capsys, tmp_path):
        code, payload = run(capsys, "branch", "--manifest", twobranch_file(tmp_path))
        assert code == 0
        assert payload["family"] == "twobranch"

    def test_missing_manifest_is_usage_error(self, capsys):
        code, _ = run(capsys, "branch", "--manifest", "nosuch")
        assert code == 2

    def test_unparseable_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "branch", "--manifest", str(path))
        assert code == 2


class TestBranch:
    def test_flagship_bound(self, capsys):
        code, payload = run(capsys, "branch", "--manifest", "psl32", "--s0", "1")
        assert code == 0
        assert payload["infinity"] is True
        assert payload["points"] == []
        assert payload["residual_degree"] == 5
        assert payload["nondegenerate"] is True
        assert payload["declared"][0]["location"] == "inf"
        assert payload["declared"][0]["inertia_class"] == "2^2.1^3"
        assert payload["declared"][0]["decomposition_order"] == 4

    def test_large_s0_finishes(self):
        # the residual's constant term has 79 digits here; rational roots
        # come by p-adic lifting, so none of it is factored
        env = dict(os.environ, PYTHONPATH=str(Path(galspec.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "galspec", "branch", "--manifest", "psl32", "--s0", "1000003"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0
        payload = json.loads(done.stdout)
        assert payload["points"] == [] and payload["residual_degree"] == 5

    def test_symbolic_locus(self, capsys):
        code, payload = run(capsys, "branch", "--manifest", "x3mt")
        assert code == 0
        assert payload["points"] == ["0"]
        assert payload["infinity"] is True
        assert "s0" not in payload

    def test_wrong_declared_class_at_s0_is_usage_error(self, capsys, tmp_path):
        # X^3 - 3X - t has a transposition over t = 2, not a 3-cycle
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(cubic_manifest(("2", "(1 2 3)", 3))))
        code = main(["branch", "--manifest", str(path), "--s0", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: branch point 0 declares inertia class 3" in captured.err
        # without --s0 nothing is bound, so no class is checked
        code, payload = run(capsys, "branch", "--manifest", str(path))
        assert code == 0 and payload["declared"][0]["inertia_class"] == "3"

    def test_degenerate_s0_is_reported_not_refused(self, capsys):
        code, payload = run(capsys, "branch", "--manifest", "psl32", "--s0", "0")
        assert code == 0
        assert payload["nondegenerate"] is False
        assert payload["degenerate_reasons"] == ["discriminant t-degree drops"]


class TestBadPrimes:
    def test_cubic_frozen(self, capsys):
        code, payload = run(
            capsys, "badprimes", "--manifest", "x3mt", "--s0", "0", "--bound", "50"
        )
        assert code == 0
        assert payload["bad_primes"] == [
            {"p": 2, "reasons": ["DividesGroupOrder"]},
            {"p": 3, "reasons": ["DividesGroupOrder", "VerticalRamification"]},
        ]

    def test_flagship_includes_large_witnesses(self, capsys):
        code, payload = run(
            capsys, "badprimes", "--manifest", "psl32", "--s0", "1", "--bound", "3000"
        )
        assert code == 0
        assert [r["p"] for r in payload["bad_primes"]] == [2, 3, 7, 167, 2269]


class TestPredict:
    def test_quadratic_order_two(self, capsys):
        # X^2 - t at t0 = 12, p = 3: single contact, inertia of order 2
        code, payload = run(
            capsys, "predict", "--manifest", "x2mt", "--t0", "12", "--p", "3"
        )
        assert code == 0
        assert payload["order"] == 2
        assert payload["ramified"] is True
        assert payload["inertia_class"] == "2"
        assert payload["multiplicity"] == 1
        assert payload["branch"] == 0

    def test_even_contact_is_trivial_inertia(self, capsys):
        code, payload = run(
            capsys, "predict", "--manifest", "x2mt", "--t0", "9", "--p", "3"
        )
        assert code == 0
        assert payload["order"] == 1
        assert payload["multiplicity"] == 2
        assert payload["ramified"] is False

    def test_unramified(self, capsys):
        code, payload = run(
            capsys, "predict", "--manifest", "x2mt", "--t0", "5", "--p", "3"
        )
        assert code == 0
        assert payload == {"p": 3, "ramified": False}

    def test_infinite_branch_contact(self, capsys):
        code, payload = run(
            capsys, "predict", "--manifest", "psl32", "--s0", "1", "--t0", "1/5", "--p", "5"
        )
        assert code == 0
        assert payload["order"] == 2
        assert payload["inertia_class"] == "2^2.1^3"

    def test_wild_prime_is_usage_error(self, capsys):
        code, _ = run(capsys, "predict", "--manifest", "x2mt", "--t0", "12", "--p", "2")
        assert code == 2

    def test_nonprime_is_usage_error(self, capsys):
        code, _ = run(capsys, "predict", "--manifest", "x2mt", "--t0", "12", "--p", "4")
        assert code == 2

    def test_degenerate_s0_is_usage_error(self, capsys):
        # predict's default s0 = 0 is degenerate for psl32
        code = main(["predict", "--manifest", "psl32", "--s0", "0", "--t0", "1/11", "--p", "11"])
        assert code == 2
        assert "discriminant t-degree drops" in capsys.readouterr().err

    def test_degenerate_default_s0_names_a_nondegenerate_one(self, capsys):
        # without --s0 every s0-taking subcommand binds 0, degenerate for psl32
        hint = (
            "error: s0 = 0, the default without --s0, is degenerate: discriminant "
            "t-degree drops; the least nondegenerate integer s0 (by absolute "
            "value) is 1, so pass --s0 1\n"
        )
        for argv in (
            ["predict", "--t0", "1/11", "--p", "11"],
            ["badprimes"],
            ["verify", "--t0", "1/11", "--cond", "p=11,branch=inf,d=1"],
            ["identify", "--samples", "5"],
            ["census", "--t-range", "1..2"],
        ):
            code = main(argv[:1] + ["--manifest", "psl32"] + argv[1:])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", hint), argv[0]
        code, payload = run(capsys, "predict", "--manifest", "psl32", "--s0", "1",
                            "--t0", "1/11", "--p", "11")
        assert code == 0 and payload["branch"] == 0

    @pytest.mark.parametrize("declared", [("2", "(1 2 3)", 3), ("inf", "(1 2)", 2)])
    def test_wrong_declared_class_is_usage_error(self, capsys, tmp_path, declared):
        # X^3 - 3X - t has a transposition over t = 2 and a 3-cycle over infinity
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(cubic_manifest(declared)))
        code = main(["predict", "--manifest", str(path), "--t0", "7", "--p", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: branch point 0 declares inertia class" in captured.err

    def test_collision_reported_as_bad_prime(self, capsys, tmp_path):
        code, payload = run(
            capsys, "predict", "--manifest", twobranch_file(tmp_path),
            "--s0", "7", "--t0", "56", "--p", "7",
        )
        assert code == 1
        assert payload["bad_prime"] is True
        assert payload["reasons"] == ["BranchCollision"]


class TestSearch:
    def test_flagship_condition(self, capsys):
        code, payload = run(
            capsys, "search", "--manifest", "psl32",
            "--cond", "p=7,branch=inf,d=1,frob=2", "--n-id", "0",
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["s0"] == "2"
        assert payload["t0"] == "1/7"
        assert payload["s0_progression"] == "2 mod 7"
        assert payload["t0_progression"] == {
            "chart": "u",
            "congruence": "7 mod 49",
            "valuations": [[7, 1]],
        }
        record = payload["records"][0]
        assert record["mode"] == "full"
        assert record["observed"] == [[2, 1], [2, 1], [1, 2], [1, 1]]
        assert record["passed"] is True

    def test_trio_conditions(self, capsys):
        code, payload = run(
            capsys, "search", "--manifest", "x2mt",
            "--cond", "p=3,branch=0,d=1",
            "--cond", "p=7,unram,type=1,1",
            "--cond", "p=11,unram,type=2",
            "--n-id", "0",
        )
        assert code == 0
        assert payload["t0"] == "57"
        assert [r["passed"] for r in payload["records"]] == [True, True, True]

    def test_unrealizable_exits_one(self, capsys):
        # Frobenius over X^3 - t at p = 5 is never trivial on the residue field
        code = main(
            ["search", "--manifest", "x3mt",
             "--cond", "p=5,branch=0,d=1,frob=1", "--n-id", "0"]
        )
        assert code == 1
        assert "no residue" in capsys.readouterr().err

    def test_big_guard_finishes(self, tmp_path):
        # an s-guard's leading coefficient is the 37-digit product of two
        # 19-digit primes; exceptional primes come by division, so none of
        # it is factored
        raw = json.loads(resources.files("galspec").joinpath("data/x2mt.json").read_text())
        raw["poly"] = "X^2 - (3000000000000000046000000000000000111*s + 1)*t"
        path = tmp_path / "bigguard.json"
        path.write_text(json.dumps(raw))
        env = dict(os.environ, PYTHONPATH=str(Path(galspec.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "galspec", "search", "--manifest", str(path),
             "--cond", "p=5,branch=0,d=1"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert done.returncode == 0
        payload = json.loads(done.stdout)
        assert (payload["s0"], payload["t0"]) == ("0", "5")

    def test_no_conditions_is_usage_error(self, capsys):
        code, _ = run(capsys, "search", "--manifest", "x2mt")
        assert code == 2


class TestVerify:
    def test_trio_passes(self, capsys):
        code, payload = run(
            capsys, "verify", "--manifest", "x2mt", "--t0", "57",
            "--cond", "p=3,branch=0,d=1",
            "--cond", "p=7,unram,type=1,1",
            "--cond", "p=11,unram,type=2",
            "--n-id", "0",
        )
        assert code == 0
        assert payload["passed"] is True
        modes = [r["mode"] for r in payload["records"]]
        assert modes == ["full", "unramified", "unramified"]

    def test_mismatch_exits_one_with_report(self, capsys):
        code, payload = run(
            capsys, "verify", "--manifest", "x2mt", "--t0", "12",
            "--cond", "p=7,unram,type=1,1", "--n-id", "0",
        )
        assert code == 1
        assert payload["passed"] is False
        record = payload["records"][0]
        assert record["observed"] == [2]
        assert record["predicted"] == [1, 1]

    @pytest.mark.parametrize(
        "argv",
        [
            # 3 divides disc(X^2 - 18) but not that of Q(sqrt 18) = Q(sqrt 2)
            ["--manifest", "x2mt", "--t0", "18", "--cond", "p=3,unram,type=2", "--n-id", "0"],
            # t0 = 1/121 meets the branch point at infinity with contact 2
            ["--manifest", "psl32", "--s0", "1", "--t0", "1/121",
             "--cond", "p=11,unram,type=2,2,1,1,1"],
        ],
    )
    def test_unramified_prime_dividing_the_model_discriminant_passes(self, capsys, argv):
        code, payload = run(capsys, "verify", *argv)
        assert code == 0
        assert payload["records"][0]["passed"] is True

    def test_ramified_prime_fails_an_unramified_condition_with_its_shape(self, capsys):
        # v_3(27) = 3 is odd: 3 ramifies in Q(sqrt 27) = Q(sqrt 3)
        code, payload = run(
            capsys, "verify", "--manifest", "x2mt", "--t0", "27",
            "--cond", "p=3,unram,type=2", "--n-id", "0",
        )
        assert code == 1
        assert payload["records"][0]["observed"] == [[2, 1]]

    @pytest.mark.parametrize(
        "manifest, cond", [("x2mt", "p=3,branch=0,d=1"), ("x3mt", "p=7,branch=0,d=1")]
    )
    def test_t0_on_a_branch_point_fails_without_identification(self, capsys, manifest, cond):
        # X^2 - 0 and X^3 - 0 have repeated roots: no field, and no auxiliary
        # prime can read the fibre, so identification is skipped, not failed
        assert main(["verify", "--manifest", manifest, "--t0", "0", "--cond", cond]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "identification" not in payload and payload["passed"] is False
        (record,) = payload["records"]
        assert record["passed"] is False
        assert record["observed"] == "repeated factor over Q; shapes need squarefree input"
        assert captured.err.strip().splitlines() == [
            "0/1 condition(s) hold; report FAILED",
            "identification skipped: t0 = 0 lies on a branch point, so the fibre has a "
            "repeated factor and no auxiliary prime can read it",
        ]

    def test_malformed_condition_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "verify", "--manifest", "x2mt", "--t0", "12", "--cond", "p=oops"
        )
        assert code == 2

    def test_wild_condition_prime_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "verify", "--manifest", "x2mt", "--t0", "12",
            "--cond", "p=2,unram,type=1,1",
        )
        assert code == 2

    def test_identification_certified(self, capsys):
        argv = [
            "verify", "--manifest", "psl32", "--s0", "1", "--t0", "1/11",
            "--cond", "p=11,branch=0,d=1,frob=2",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        ident = json.loads(captured.out)["identification"]
        assert ident["verdict"] == "ACCEPT" and ident["passed"] is True
        assert ident["certificate"] == ["2^2.1^3", "7"]
        assert ident["sampled"] <= 300
        assert captured.err.strip().splitlines() == ["1/1 condition(s) hold; report passed"]

    def test_identification_inconclusive(self, capsys, tmp_path):
        # every PSL(3,2) type lies in A7, so no pair certifies the claimed S7
        argv = [
            "verify", "--manifest", s7claim_file(tmp_path), "--s0", "1", "--t0", "1/11",
            "--cond", "p=11,branch=0,d=1,frob=2", "--n-id", "20",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        ident = json.loads(captured.out)["identification"]
        assert ident["verdict"] == "INCONCLUSIVE" and ident["passed"] is False
        assert ident["certificate"] == [] and ident["alien"] == []
        assert ident["sampled"] == 20
        assert captured.err.strip().splitlines() == [
            "1/1 condition(s) hold; report FAILED",
            "identification INCONCLUSIVE: no two types in 20 readable prime(s) "
            "invariably generate the declared group",
        ]

    def test_identification_reject_note(self, capsys, tmp_path):
        # x3mt's fibres realize S3; a manifest claiming A3 meets a transposition
        raw = json.loads(resources.files("galspec").joinpath("data/x3mt.json").read_text())
        raw["group_generators"] = ["(1 2 3)"]
        path = tmp_path / "a3claim.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--manifest", str(path), "--t0", "56", "--n-id", "60",
                     "--cond", "p=7,branch=0,d=1"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["identification"]["verdict"] == "REJECT"
        assert captured.err.strip().splitlines()[-1] == (
            "identification REJECT: type(s) 2.1 lie outside the declared group"
        )


class TestIdentify:
    def test_quadratic_accepts(self, capsys):
        code, payload = run(
            capsys, "identify", "--manifest", "x2mt", "--samples", "100", "--seed", "0"
        )
        assert code == 0
        assert payload["verdict"] == "ACCEPT"
        assert payload["observed"] == {"1^2": 48, "2": 52}
        assert payload["expected"] == {"1^2": "1/2", "2": "1/2"}

    def test_flagship_accepts(self, capsys):
        code, payload = run(
            capsys, "identify", "--manifest", "psl32", "--s0", "1",
            "--samples", "300", "--seed", "0",
        )
        assert code == 0
        assert payload["verdict"] == "ACCEPT"
        assert sorted(payload["observed"]) == ["1^7", "2^2.1^3", "3^2.1", "4.2.1", "7"]
        assert payload["alien"] == []
        assert payload["frequency_violations"] == []

    def test_seed_without_identity_accepts(self, capsys):
        # seed 3 never draws the identity class in 300 samples; the types it
        # did draw still prove the group, so no frequency is weighed
        code, payload = run(
            capsys, "identify", "--manifest", "psl32", "--s0", "1",
            "--samples", "300", "--seed", "3",
        )
        assert code == 0
        assert "1^7" not in payload["observed"]
        assert payload["verdict"] == "ACCEPT"
        assert payload["certificate"] == ["2^2.1^3", "7"]
        assert payload["frequency_violations"] == []

    def test_no_sample_is_usage_error(self, capsys):
        for samples in ("0", "-3"):
            code, _ = run(
                capsys, "identify", "--manifest", "x2mt", "--samples", samples, "--seed", "4"
            )
            assert code == 2

    def test_one_sample_is_inconclusive(self, capsys):
        # both cells of x2mt expect 1/2 and pool into one: no degree of
        # freedom is left, so the chi-square test cannot reject
        code = main(["identify", "--manifest", "x2mt", "--samples", "1", "--seed", "0"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 1
        assert payload["verdict"] == "INCONCLUSIVE"
        assert (payload["statistic"], payload["df"]) == (0.0, 0)
        assert captured.err.splitlines()[-1].startswith("identification INCONCLUSIVE: ")

    def test_wrong_group_rejected(self, capsys, tmp_path):
        # the fibers realize PSL3(2); a manifest claiming S7 must be caught
        code, payload = run(
            capsys, "identify", "--manifest", s7claim_file(tmp_path), "--s0", "1",
            "--samples", "300", "--seed", "0",
        )
        assert code == 1
        assert payload["verdict"] == "REJECT"
        assert "2.1^5" in payload["frequency_violations"]

    def test_no_group_support_only(self, capsys, tmp_path):
        manifest = {"name": "mystery", "poly": "X^2 - t"}
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(manifest))
        code, payload = run(
            capsys, "identify", "--manifest", str(path), "--samples", "50", "--seed", "1"
        )
        assert code == 0
        assert payload["verdict"] == "SUPPORT-ONLY"
        assert "expected" not in payload
        assert set(payload["observed"]) <= {"1^2", "2"}

    def test_degenerate_s0_is_usage_error(self, capsys, tmp_path):
        code, _ = run(
            capsys, "identify", "--manifest", twobranch_file(tmp_path), "--s0", "0"
        )
        assert code == 2

    def test_fibre_not_p_integral_is_skipped(self, capsys, tmp_path):
        # s0 = 1/3 puts 3 in the fibres' denominators, and 3 is in the pool
        path = tmp_path / "m1.json"
        path.write_text(json.dumps({"name": "m1", "poly": "X^2 - s*t"}))
        code, payload = run(
            capsys, "identify", "--manifest", str(path), "--s0", "1/3",
            "--samples", "300", "--seed", "1",
        )
        assert code == 0
        assert payload["verdict"] == "SUPPORT-ONLY"
        assert sum(payload["observed"].values()) == 300


class TestCensus:
    def test_quadratic_small_grid(self, capsys):
        code = main(
            ["census", "--manifest", "x2mt", "--t-range", "1..30", "--p-max", "13"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s0,t0,p,predicted,observed,match"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 6 for r in rows)
        assert len(rows) == 180  # 30 values of t, 6 primes
        assert all(r[5] == "bad" for r in rows if r[2] == "2")
        good = [r for r in rows if r[5] != "bad"]
        assert len(good) == 150
        assert all(r[5] == "true" for r in good)

    def test_rows_sorted_and_zero_skipped(self, capsys):
        code = main(
            ["census", "--manifest", "x3mt", "--t-range=-3..3", "--p-max", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        keys = [(int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        assert all(t != 0 for t, _ in keys)  # t0 = 0 sits on the branch point

    def test_ramified_rows_match(self, capsys):
        code = main(
            ["census", "--manifest", "x3mt", "--t-range", "5..5", "--p-max", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        by_p = {int(r.split(",")[2]): r.split(",") for r in out.strip().split("\n")[1:]}
        assert by_p[5][3:] == ["3", "3", "true"]  # t0 = 5: full contact at p = 5
        assert by_p[7][3:] == ["1^3", "1^3", "true"]

    def test_csv_pinned(self, capsys):
        # hashed from the census that factored every cell and read contacts
        # in Fraction arithmetic
        pins = {
            "x2mt": ("2a86cb05e201b807cd1da3a55bfc6a5e522bba861f42a3a2ac57c1516fc63d52",
                     "x2mt: 3000 rows, 2880 over good primes, match rate 1.0000, bad primes [2]\n"),
            "x3mt": ("bd606fcd407b1ef3bc85330b0b7077a8c4bbc7f4a5f58c1dbaeba5c61d66f71d",
                     "x3mt: 3000 rows, 2760 over good primes, match rate 1.0000, bad primes [2, 3]\n"),
        }
        for name, (digest, note) in pins.items():
            code = main(["census", "--manifest", name, "--t-range=-60..60", "--p-max", "97"])
            captured = capsys.readouterr()
            assert code == 0
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, name
            assert captured.err == note

    def test_fibre_not_p_integral_is_measured(self, tmp_path):
        # f(3, X) = (X - 2/3)^2 - 5 has 3 in a denominator, and 3 is no bad
        # prime: its row is the shape of an integral model of the same field
        path = tmp_path / "ninth.json"
        path.write_text(json.dumps(ninth_manifest()))
        env = dict(os.environ, PYTHONPATH=str(Path(galspec.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "galspec", "census", "--manifest", str(path),
             "--t-range", "0..3", "--p-max", "5"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 0
        assert done.stderr == "ninth: 12 rows, 8 over good primes, match rate 1.0000, bad primes [2]\n"
        rows = [line.split(",") for line in done.stdout.strip().split("\n")[1:]]
        at3 = [r for r in rows if r[2] == "3"]
        assert [r[1] for r in at3] == ["0", "1", "2", "3"]
        m = load_manifest(ninth_manifest())
        for r in at3:
            shape = padic_shape(p_integral_model(local_model(m, 0, int(r[1]))[0], 3), 3)
            assert r[4] == str(CycleType(tuple(e for e, f in shape.pairs for _ in range(f))))

    def test_bad_t_range_is_usage_error(self, capsys):
        code = main(["census", "--manifest", "x2mt", "--t-range", "oops"])
        assert code == 2

    def test_reversed_t_range_is_usage_error(self, capsys):
        # a census that checks no cell must not report a match rate of 1
        code = main(["census", "--manifest", "x3mt", "--t-range=10..-10"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: empty census grid: t0 in 10..-10, p <= 97\n")

    def test_p_max_below_two_is_usage_error(self, capsys):
        code = main(["census", "--manifest", "x3mt", "--t-range=-10..10", "--p-max", "1"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: empty census grid: t0 in -10..10, p <= 1\n")

    def test_prediction_contradiction_exits_one(self, capsys, monkeypatch):
        from galspec import grunwald
        from galspec.beckmann import BadPrimeReport, PredictionContradiction

        def collide(m, contacts, p):
            raise PredictionContradiction(BadPrimeReport(p, ("BranchCollision",)))

        monkeypatch.setattr(grunwald, "_meet", collide)
        code = main(["census", "--manifest", "x2mt", "--t-range", "1..2", "--p-max", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines() == [
            "p=3 is bad at this specialization: BranchCollision"
        ]


class TestDeterminism:
    def test_search_json_byte_identical(self, tmp_path, capsys):
        argv = [
            "search", "--manifest", "psl32",
            "--cond", "p=7,branch=inf,d=1,frob=2",
            "--n-id", "25", "--seed", "5",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first = main(argv + ["--out", str(a)])
        second = main(argv + ["--out", str(b)])
        assert first == second
        assert a.read_bytes() == b.read_bytes()

    def test_identify_json_byte_identical(self, tmp_path, capsys):
        argv = ["identify", "--manifest", "x3mt", "--samples", "80", "--seed", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, capsys):
        _, one = run(capsys, "identify", "--manifest", "x3mt", "--samples", "60", "--seed", "1")
        _, two = run(capsys, "identify", "--manifest", "x3mt", "--samples", "60", "--seed", "2")
        assert one["observed"] != two["observed"]


class TestLibraryBindings:
    def test_census_and_identify_live_in_the_library(self):
        import galspec.cli
        import galspec.grunwald

        assert galspec.cli.census is galspec.grunwald.census
        assert galspec.cli.identify is galspec.grunwald.identify


class TestReadme:
    def test_command_block_exits_zero(self, capsys, tmp_path, monkeypatch):
        # census writes census.csv into the working directory
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "branch", "badprimes", "predict", "predict", "search", "verify", "identify", "census",
        ]
        for argv in commands:
            assert main(argv) == 0, argv
            capsys.readouterr()
        assert (tmp_path / "census.csv").read_text().startswith("s0,t0,p,")

    def test_pinned_commands_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert {shlex.join(argv) for argv in readme_commands()} <= PINNED_COMMANDS.keys()
        sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
        for line, pin in PINNED_COMMANDS.items():
            code = main(shlex.split(line))
            out, err = capsys.readouterr()
            assert (code, sha(out), sha(err)) == pin, line
        assert sha((tmp_path / "census.csv").read_text()) == README_CENSUS_CSV


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--manifest", "x2mt", "--t0", "1/0", "--p", "3"],
            ["verify", "--manifest", "x2mt", "--t0", "1/0", "--cond", "p=7,unram,type=1,1"],
            ["badprimes", "--manifest", "x2mt", "--s0", "1/0"],
            ["branch", "--manifest", "x2mt", "--s0", "1/0"],
        ],
    )
    def test_zero_denominator_in_a_value_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "poly, location", [("X^2 - 1/0*t", "0"), ("X^2 - t", "1/0")]
    )
    def test_zero_denominator_in_a_manifest_is_usage_error(self, capsys, tmp_path, poly, location):
        path = tmp_path / "zero.json"
        point = {"location": location, "e": 2, "inertia_generator": "(1 2)",
                 "decomposition_generators": ["(1 2)"]}
        path.write_text(json.dumps({"name": "zero", "poly": poly, "branch_points": [point]}))
        assert main(["branch", "--manifest", str(path)]) == 2
        assert "bad rational literal near '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--manifest", "x2mt", "--t0", "57", "--cond", "p=7,unram,type=1,1"],
            ["search", "--manifest", "x2mt", "--cond", "p=7,unram,type=2"],
        ],
    )
    def test_negative_n_id_is_usage_error(self, capsys, argv):
        # a negative cap is never reached, so it would read every auxiliary prime
        assert main(argv + ["--n-id", "-1"]) == 2
        assert "n_id must be at least 0, not -1" in capsys.readouterr().err
