"""``scripts/run_experiments.py``: its table of outputs, the bundled tables
counted in chunks on worker processes, and ``--check`` against each pin."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from fairorder.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", ROOT / "scripts" / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs(script, trials, names=None):
    """The configs of the config entries, or of those ``names``, at ``trials``."""
    return [replace(script.OUTPUTS[name].make, trials=trials)
            for name in names or script.OUTPUTS if not callable(script.OUTPUTS[name].make)]


def test_every_output_has_exactly_one_pin(script):
    for name, entry in script.OUTPUTS.items():
        assert (entry.file is None) != (entry.sha256 is None), name
        assert entry.file is None or entry.file == entry.make.output, name


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_every_table_is_the_same_at_any_job_count(script, jobs):
    # 7 trials split 2 + 2 + 3 at 3 jobs; a worker counts each chunk
    want = [run_experiment(config).to_csv_text() for config in configs(script, 7)]
    assert [table.to_csv_text() for table in script.tables(configs(script, 7), jobs)] == want


def test_a_closed_form_table_is_made_in_process(script, monkeypatch):
    # bounds_table counts no trials, so no chunk of it is counted anywhere
    counted = []
    count_trials = script.count_trials

    def counting(config, start, stop):
        counted.append((config.scenario, start, stop))
        return count_trials(config, start, stop)

    monkeypatch.setattr(script, "count_trials", counting)
    four = configs(script, 4, ("bounds_table", "sandwich"))
    want = [run_experiment(config).to_csv_text() for config in four]
    assert [table.to_csv_text() for table in script.tables(four, 1)] == want
    assert counted == [("sandwich", 0, 4)]


def test_every_committed_csv_regenerates_byte_for_byte(script, monkeypatch):
    # the full-trial fence: --check on every output, in process at 1 job,
    # 3-5 s on one core of a shared 2-vCPU Xeon.  Only this test makes full
    # runs, so only it drives the 61 and 69 seeding passes of geo_bias and
    # tradeoff_curve and the sweep's 10^6 samples per estimate
    monkeypatch.chdir(ROOT)
    assert script.main(["--check", "--jobs", "1"]) == 0


def test_chunks_cover_the_trials_once(script):
    config = script.OUTPUTS["geo_bias"].make
    assert script._chunks(replace(config, trials=7), 3) == [(0, 2), (2, 4), (4, 7)]
    assert script._chunks(replace(config, trials=2), 4) == [(0, 1), (1, 2)]
    assert script._chunks(config, 1) == [(0, config.trials)]


def test_check_names_each_differing_csv_and_writes_nothing(script, tmp_path, monkeypatch, capsys):
    # --check reads results/ under the working directory, as a run writes it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    names = ("bounds_table", "sandwich")
    committed = {name: (ROOT / "results" / f"{name}.csv").read_bytes() for name in names}
    for name, data in committed.items():
        (tmp_path / "results" / f"{name}.csv").write_bytes(data)
    argv = ["--check", "--only", ",".join(names), "--jobs", "1"]
    assert script.main(argv) == 0
    changed = committed["sandwich"].replace(b"pompe", b"pompf", 1)
    (tmp_path / "results" / "sandwich.csv").write_bytes(changed)
    (tmp_path / "results" / "bounds_table.csv").unlink()
    capsys.readouterr()
    assert script.main(argv) == 1
    out, err = capsys.readouterr()
    assert "MISSING: results/bounds_table.csv" in out
    assert "DIFFERS from results/sandwich.csv" in out
    assert "results/bounds_table.csv" in err and "results/sandwich.csv" in err
    assert [p.name for p in (tmp_path / "results").iterdir()] == ["sandwich.csv"]
    assert (tmp_path / "results" / "sandwich.csv").read_bytes() == changed


def test_check_names_a_differing_digest_and_writes_nothing(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    entry = script.OUTPUTS["tightness"]

    def one_byte_changed(trials):
        table = entry.make(trials)
        table.header = ("N", *table.header[1:])
        return table

    monkeypatch.setitem(script.OUTPUTS, "tightness", entry._replace(make=one_byte_changed))
    assert script.main(["--check", "--only", "tightness", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert f"DIFFERS from sha256 {entry.sha256}" in out
    assert entry.sha256 in err
    assert list(tmp_path.iterdir()) == []


def test_a_two_job_run_writes_every_table_its_checks_accept(script, tmp_path, monkeypatch):
    # the parent checks each table's summed counts against the cells its
    # config lists, so a run on a worker pool must hand it every cell in order
    monkeypatch.chdir(tmp_path)
    names = ("bounds_table", "geo_bias", "sandwich")
    assert script.main(["--trials", "3", "--jobs", "2", "--only", ",".join(names)]) == 0
    for config in configs(script, 3, names):
        assert (tmp_path / config.output).read_text() == run_experiment(config).to_csv_text()


@pytest.mark.parametrize("argv", [
    ["--check", "--trials", "5"], ["--trials", "0"], ["--jobs", "0"], ["--only", "geo"],
    ["--trials", "200"], ["--trials", "200", "--only", "geo_bias,tightness"],
])
def test_bad_arguments_are_usage_errors(script, argv, capsys):
    # --check runs at full trials only; a --trials of 0 must not read as
    # "no override" and run the full trial counts; the sweep needs 1000
    # samples per estimate
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "200" in argv:
        assert "tightness" in err
