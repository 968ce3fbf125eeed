import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartic_census
from quartic_census.cli import main, parse_exact_int, validate_box


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_parse_exact_int():
    assert parse_exact_int("100000000") == 10**8
    assert parse_exact_int("1e8") == 10**8
    assert parse_exact_int("-3") == -3
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_exact_int("1.5")


def test_classify_d4(capsys):
    rc, out = run_cli(capsys, "classify", "1,0,0,0,-2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["galois"] == "d4"
    assert rep["r2"] == 1
    assert rep["maximality"]["maximal"] is True
    assert rep["conductors"]["1"] == -256
    assert rep["decomposition"]["h"] == [1, 0, -2]


def test_classify_v4(capsys):
    rc, out = run_cli(capsys, "classify", "1,0,0,0,1")
    assert json.loads(out)["galois"] == "v4"


def test_classify_rejects_degenerate():
    with pytest.raises(SystemExit):
        main(["classify", "0,0,0,0,1"])


def test_family_and_decompose(capsys):
    rc, out = run_cli(capsys, "family", "1,0,1,0,2")
    assert json.loads(out)["families"] == [1]
    rc, out = run_cli(capsys, "decompose", "1:1,0,-1")
    assert json.loads(out)["h"] == [1, 0, -1]
    rc, out = run_cli(capsys, "maximal", "1:9,0,1")
    rep = json.loads(out)
    assert rep["maximal"] is False and rep["failing_prime"] == 3


def test_validate_and_bug_injection(capsys):
    rc, out = run_cli(capsys, "validate", "--box", "3", "--pmax", "3")
    rep = json.loads(out)
    assert rep["pass"] is True and rep["mismatches"] == 0 and rep["checked"] > 0
    rc, out = run_cli(capsys, "validate", "--box", "3", "--pmax", "3", "--flip-clause")
    rep = json.loads(out)
    assert rep["mismatches"] > 0
    rep = validate_box(0, 3)
    assert rep["checked"] == 0 and rep["pass"] is False


def assert_one_line_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--pmax", "1"], ["--box", "-2"], ["--box", "0"]])
def test_validate_rejects_empty_box(capsys, argv):
    assert_one_line_error(capsys, ["validate", *argv])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1,0,x"],
        ["classify", "0,0,0,0,1"],
        ["family", "1,0"],
        ["maximal", "4:1,2,3"],
        ["decompose", "zz"],
        ["decompose", "1:1,2,1"],
        ["maximal", "1:0,1,0"],
        ["--shards", "65", "census", "conductor", "--x", "100"],
        ["densities", "--primes", "4"],
        ["densities", "--primes", "2,a"],
        ["constants", "--which", "carefree", "--prime-limit", "0"],
        ["constants", "--which", "d4-leading", "--prime-limit", "1e12"],
        ["validate", "--pmax", "1e12"],
        [{"config": None}, "family", "1,0,0,0,1"],
        [{"config": "shards\n"}, "family", "1,0,0,0,1"],
        [{"config": "format=xml\n"}, "family", "1,0,0,0,1"],
        [{"env": {"QC_FORMAT": "xml"}}, "family", "1,0,0,0,1"],
        [{"no_census": True}, "census", "conductor", "--x", "1000", "--emit", "{missing}/out.csv"],
        [{"no_census": True}, "--out", "{missing}/x.json", "census", "conductor", "--x", "1000"],
        [{"no_census": True}, "--manifest", "{missing}/m.json", "census", "conductor", "--x", "1000"],
        ["--out", "{missing}/d.csv", "densities", "--a-bound", "1", "--primes", "2"],
    ],
)
def test_bad_input_is_one_line(capsys, tmp_path, monkeypatch, argv):
    # a leading dict sets bad global settings: "config", the text of a config
    # file (None: a path with no file), "env", environment variables, or
    # "no_census", a census that fails if it runs (an output file that cannot
    # be written must fail before the work); {missing} is a missing directory
    argv = [a.format(missing=tmp_path / "no" / "dir") if isinstance(a, str) else a for a in argv]
    if isinstance(argv[0], dict):
        settings, argv = argv[0], argv[1:]
        if "config" in settings:
            path = tmp_path / "qc.conf"
            if settings["config"] is not None:
                path.write_text(settings["config"])
            argv = ["--config", str(path), *argv]
        for name, value in settings.get("env", {}).items():
            monkeypatch.setenv(name, value)
        if settings.get("no_census"):
            from quartic_census import census

            def never(config):
                raise AssertionError("the census ran before its output files were opened")

            monkeypatch.setattr(census, "run_census", never)
    assert_one_line_error(capsys, argv)


def test_densities_csv(capsys, tmp_path):
    out_path = tmp_path / "dens.csv"
    rc, _ = run_cli(
        capsys, "--out", str(out_path), "densities", "--a-bound", "3", "--primes", "2,3"
    )
    text = out_path.read_text()
    assert text.startswith("kind,a,m,rho,space,closed_form,match")
    assert ",rho_v4," not in text.splitlines()[0]
    assert any(line.startswith("rho_v4,") for line in text.splitlines())


def test_census_cli(capsys, tmp_path):
    emit = tmp_path / "records.csv"
    manifest = tmp_path / "manifest.json"
    rc, out = run_cli(
        capsys,
        "--manifest",
        str(manifest),
        "census",
        "conductor",
        "--x",
        "2000",
        "--emit",
        str(emit),
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["total"] > 0 and summary["x"] == 2000
    text = emit.read_text()
    assert text.splitlines()[0] == "family,A,B,C,disc,conductor,galois,r2"
    man = json.loads(manifest.read_text())
    assert man["command"] == "census"
    assert "summary" in man["output_hashes"]
    assert man["versions"]["quartic_census"]


@pytest.mark.parametrize("x", ["1", "20000"])
def test_census_emit_matches_library(capsys, tmp_path, x):
    # the CLI writes and hashes the CSV in one pass; the file and the hash
    # must equal what the library gives for the same config (X = 1 has no
    # records: the file is the header alone, which the hash leaves out)
    from quartic_census.census import CensusConfig, output_hash, records_csv, run_census, summarize

    emit = tmp_path / "records.csv"
    rc, out = run_cli(capsys, "--shards", "2", "census", "conductor", "--x", x, "--emit", str(emit))
    assert rc == 0
    cfg = CensusConfig(x=int(x), shards=2, emit=True)
    tal = run_census(cfg)
    summary = summarize(cfg, tal)
    assert emit.read_bytes() == records_csv(tal).encode()
    assert json.loads(out)["output_hash"] == output_hash(summary, tal)


def test_census_shard_hash_identical(capsys):
    outs = []
    for k in ("1", "4"):
        rc, out = run_cli(capsys, "--shards", k, "census", "conductor", "--x", "30000")
        outs.append(json.loads(out)["output_hash"])
    assert outs[0] == outs[1]


def test_census_rejects_non_integer():
    with pytest.raises(SystemExit):
        main(["census", "conductor", "--x", "1.5e3.2"])
    with pytest.raises(SystemExit):
        main(["census", "conductor", "--x", "12.7"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--shards", "0", "census", "conductor", "--x", "1000"],
        ["census", "conductor", "--x", "1000", "--families", "4"],
        ["census", "conductor", "--x", "250000001"],
        ["census", "discriminant", "--x", "200000001"],
    ],
)
def test_census_config_error_is_one_line(capsys, argv):
    assert_one_line_error(capsys, argv)


def test_census_discriminant_v4(capsys):
    rc, out = run_cli(
        capsys, "census", "discriminant", "--x", "1000000", "--galois", "v4", "--families", "1"
    )
    s = json.loads(out)
    from quartic_census.census import count_v4_by_disc

    assert s["total"] == count_v4_by_disc(10**6)


def test_constants(capsys):
    rc, out = run_cli(capsys, "constants", "--which", "carefree", "--prime-limit", "1000")
    rep = json.loads(out)
    assert 0.42 < rep["value"] < 0.44 and rep["tail_bound"] > 0
    rc, out = run_cli(capsys, "constants", "--which", "integrals")
    rep = json.loads(out)
    assert abs(rep["iplus"] - rep["iplus_closed"]) < 1e-9
    rc, out = run_cli(capsys, "constants", "--which", "d4-leading", "--prime-limit", "10000")
    rep = json.loads(out)
    assert abs(rep["r2_proportions"][2] - 0.5) < 1e-9


def test_env_config_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "qc.conf"
    cfg.write_text("shards=3\nformat=json\n")
    monkeypatch.setenv("QC_SHARDS", "2")
    # env beats config file; flag beats env
    rc, out = run_cli(capsys, "--config", str(cfg), "census", "conductor", "--x", "500")
    assert rc == 0
    monkeypatch.delenv("QC_SHARDS")
    rc, out = run_cli(capsys, "--config", str(cfg), "census", "conductor", "--x", "500")
    assert rc == 0


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, so that imports by other tests
    cannot hide one, with no QC_ settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QC_")}
    src = str(Path(quartic_census.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def test_census_never_imports_scipy():
    # scipy serves only the quadrature routes of asymptotics, and neither a
    # library census with emit nor the CLI census may load it
    code = (
        "import sys\n"
        "from quartic_census.census import CensusConfig, output_hash, run_census, summarize\n"
        "cfg = CensusConfig(x=20000, emit=True)\n"
        "tal = run_census(cfg)\n"
        "output_hash(summarize(cfg, tal), tal)\n"
        "assert 'scipy' not in sys.modules, 'library'\n"
        "from quartic_census.cli import main\n"
        "assert main(['census', 'conductor', '--x', '20000']) == 0\n"
        "assert 'scipy' not in sys.modules, 'cli'\n"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total"] > 0


def test_sharded_census_never_imports_multiprocessing():
    # the shards are plain forked children with a pipe each, so a sharded
    # census does not pay for the multiprocessing import
    code = (
        "import sys\n"
        "from quartic_census.census import CensusConfig, output_hash, run_census, summarize\n"
        "cfg = CensusConfig(x=20000, shards=2, emit=True)\n"
        "tal = run_census(cfg)\n"
        "output_hash(summarize(cfg, tal), tal)\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
