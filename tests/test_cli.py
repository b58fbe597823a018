import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wattrank
from wattrank import synthetic
from wattrank.cli import main
from wattrank.dataset_builder import CorruptDataset, load_dataset
from wattrank.instruction_profiler import profile_from_json
from wattrank.ranking import CSV_HEADER


def test_profile_prints_json(corpus_path, capsys):
    assert main(["profile", str(corpus_path)]) == 0
    prof = profile_from_json(capsys.readouterr().out)
    assert prof.total == 20
    assert prof.workload_id == "copy_kernel"


def test_profile_writes_file(corpus_path, tmp_path):
    out = tmp_path / "profile.json"
    assert main(["profile", str(corpus_path), "--workload-id", "cnn", "--out", str(out)]) == 0
    prof = profile_from_json(out.read_text())
    assert prof.workload_id == "cnn"
    assert prof.counts[list(prof.counts)[0]] == 8


def test_profile_missing_file_exits_one(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "nope.ptx")]) == 1
    assert "error" in capsys.readouterr().err


def test_devices_list_default_catalog(capsys):
    assert main(["devices", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("V100", "2080Ti", "1080Ti"):
        assert name in out


def test_devices_add_and_duplicate(tmp_path, capsys):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps([{
        "name": "A4000", "architecture": "Ampere", "sm_count": 48,
        "fp32_cores": 6144, "l2_cache_kib": 4096, "core_clock_mhz": 1560.0,
        "memory_clock_mhz": 1750.0, "memory_bandwidth_gbps": 448.0,
    }]))
    merged = tmp_path / "merged.json"
    assert main(["devices", "add", "--file", str(extra), "--out", str(merged)]) == 0
    assert main(["devices", "list", "--catalog", str(merged)]) == 0
    assert "A4000" in capsys.readouterr().out
    # adding the same record again must fail on the duplicate name
    assert main(["devices", "add", "--file", str(extra), "--catalog", str(merged)]) == 1


def test_devices_add_refuses_builtin_overwrite(tmp_path):
    extra = tmp_path / "extra.json"
    extra.write_text("[]")
    assert main(["devices", "add", "--file", str(extra)]) == 1


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """Files for the full CLI pipeline, from one small synthetic experiment."""
    root = tmp_path_factory.mktemp("workflow")
    experiment = synthetic.generate(synthetic.SyntheticConfig(n_workloads=8, seed=3))
    samples_dir = root / "samples"
    samples_dir.mkdir()
    profiles: dict[str, object] = {}
    for index, run in enumerate(experiment.runs):
        ptx = root / f"{run.workload_id}.ptx"
        if not ptx.exists():
            ptx.write_text(run.ptx_text)
        power = root / f"run{index}.csv"
        power.write_text(run.power_csv_text)
        meta = root / f"run{index}.meta.json"
        meta.write_text(json.dumps({
            "workload_id": run.meta.workload_id,
            "device_name": run.meta.device_name,
            "wall_clock_s": run.meta.wall_clock_s,
            "repetitions": run.meta.repetitions,
        }))
        prof = root / f"{run.workload_id}.profile.json"
        if not prof.exists():
            assert main(["profile", str(ptx), "--workload-id", run.workload_id,
                         "--out", str(prof)]) == 0
        assert main([
            "ingest", "--power", str(power), "--meta", str(meta),
            "--profile", str(prof), "--out", str(samples_dir / f"sample{index}.json"),
        ]) == 0
    return root


def test_ingest_dataset_train_eval_rank(workflow, capsys):
    root = workflow
    dataset_prefix = root / "ds"
    assert main(["dataset", "build", "--samples", str(root / "samples"),
                 "--seed", "7", "--out", str(dataset_prefix)]) == 0
    assert (root / "ds.csv").exists() and (root / "ds.json").exists()

    model_path = root / "model.json"
    assert main(["train", "--dataset", str(dataset_prefix), "--hidden", "none",
                 "--epochs", "400", "--patience", "400", "--lr", "0.05",
                 "--out", str(model_path)]) == 0
    assert model_path.exists()

    assert main(["eval", "--model", str(model_path), "--dataset", str(dataset_prefix)]) == 0
    out = capsys.readouterr().out
    assert "r2" in out and "val" in out

    ptx = next(root.glob("cnn_*.ptx"))
    assert main(["rank", "--ptx", str(ptx), "--model", str(model_path)]) == 0
    table = capsys.readouterr().out
    assert "V100" in table and "rank" in table

    assert main(["rank", "--ptx", str(ptx), "--model", str(model_path),
                 "--format", "csv", "--objective", "max_perf"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == CSV_HEADER
    assert len(csv_out.splitlines()) == 4  # three devices ranked

    assert main(["rank", "--ptx", str(ptx), "--model", str(model_path),
                 "--format", "json", "--objective", "min_power"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {e["device"] for e in doc["entries"]} == {"V100", "2080Ti", "1080Ti"}


def test_rank_power_cap_excludes_everything(workflow, tmp_path, capsys):
    prefix, model = tmp_path / "ds", tmp_path / "model.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    assert main(["train", "--dataset", str(prefix), "--hidden", "none", "--epochs", "5",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    code = main(["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                 "--model", str(model), "--power-cap", "0.001"])
    assert code == 2
    assert "exclude" in capsys.readouterr().err


def test_train_with_feature_selection(workflow, tmp_path, capsys):
    prefix, out = tmp_path / "ds", tmp_path / "model_selected.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", str(prefix), "--hidden", "none",
                 "--epochs", "200", "--patience", "200", "--lr", "0.05",
                 "--select-threshold", "0.9", "--out", str(out)]) == 0
    trained = capsys.readouterr().out
    assert "feature selection keeps 8 features" in trained
    assert main(["eval", "--model", str(out), "--dataset", str(prefix)]) == 0
    # eval reads the saved dataset, dropped columns included, and must still
    # standardize with the selected statistics the model was trained on
    evaluated = capsys.readouterr().out
    assert [line.replace("mlp", "model", 1) for line in trained.splitlines()
            if line.startswith("mlp")] == evaluated.splitlines()


@pytest.mark.parametrize(
    "flags",
    [["--select-threshold", "1.5"], ["--select-threshold", "nan"], ["--hidden", "-3"],
     ["--hidden", "0"], ["--epochs", "0"], ["--epochs", "-5"], ["--lr", "0"],
     ["--lr", "-0.01"], ["--lr", "nan"], ["--lr", "inf"]],
    ids=["threshold-1.5", "threshold-nan", "hidden-negative", "hidden-zero",
         "epochs-zero", "epochs-negative", "lr-zero", "lr-negative", "lr-nan", "lr-inf"],
)
def test_train_rejects_bad_arguments(workflow, tmp_path, capsys, flags):
    prefix, out = tmp_path / "ds", tmp_path / "m.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", str(prefix), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_train_on_dataset_with_bad_cell_exits_one(workflow, tmp_path, capsys):
    prefix = tmp_path / "ds"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    csv_path = prefix.with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = "abc"
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["train", "--dataset", str(prefix), "--epochs", "5",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "row 4" in capsys.readouterr().err


def _edit_json(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


@pytest.mark.parametrize(
    "which,corrupt",
    [
        ("meta", lambda text: text[:-3]),
        ("meta", _edit_json(lambda d: d.update(wall_clock_s=float("nan")))),
        ("meta", _edit_json(lambda d: d.update(wall_clock_s=float("inf")))),
        ("meta", _edit_json(lambda d: d.update(repetitions=2.5))),
        ("meta", _edit_json(lambda d: d.update(repetitions=True))),
        ("meta", _edit_json(lambda d: d.update(workload_id=5))),
        ("meta", _edit_json(lambda d: d.update(wall_clock_s="1.5"))),
        ("profile", _edit_json(lambda d: d.update(counts=list(d["counts"].values())))),
        ("profile", _edit_json(lambda d: d.update(
            counts={**dict.fromkeys(d["counts"], 0), "other": True}, total=1))),
        ("profile", _edit_json(lambda d: d.update(workload_id=7))),
    ],
    ids=["meta-malformed", "meta-nan-wall-clock", "meta-infinite-wall-clock",
         "meta-fractional-repetitions", "meta-bool-repetitions",
         "meta-numeric-workload-id", "meta-string-wall-clock",
         "profile-counts-list", "profile-bool-count", "profile-numeric-workload-id"],
)
def test_ingest_of_bad_meta_or_profile_exits_one(workflow, tmp_path, capsys, which, corrupt):
    files = {"meta": workflow / "run0.meta.json",
             "profile": next(workflow.glob("*.profile.json"))}
    bad = tmp_path / f"bad.{which}.json"
    bad.write_text(corrupt(files[which].read_text()))
    files[which] = bad
    assert main(["ingest", "--power", str(workflow / "run0.csv"),
                 "--meta", str(files["meta"]), "--profile", str(files["profile"]),
                 "--out", str(tmp_path / "sample.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "sample.json").exists()


def test_ingest_reports_dropped_zero_watt_rows(workflow, tmp_path, capsys):
    power = tmp_path / "power.csv"
    power.write_text("timestamp, power.draw [W]\n" + "".join(
        f"2021/03/01 10:00:{s:02d}.000, {0.0 if s % 4 == 1 else 150.0:.2f} W\n"
        for s in range(12)
    ))
    capsys.readouterr()
    assert main(["ingest", "--power", str(power),
                 "--meta", str(workflow / "run0.meta.json"),
                 "--profile", str(next(workflow.glob("*.profile.json"))),
                 "--out", str(tmp_path / "sample.json")]) == 0
    out = capsys.readouterr().out
    assert "150.00 W" in out and "(3 0 W rows dropped)" in out


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: f"[{text}]",
        _edit_json(lambda d: d.pop("norm_stats")),
        _edit_json(lambda d: d.update(train_indices=[999, *d["train_indices"][1:]])),
        _edit_json(lambda d: d["train_indices"].append(d["val_indices"][0])),
        _edit_json(lambda d: d.update(train_indices=[float(i) for i in d["train_indices"]])),
        _edit_json(lambda d: d["norm_stats"].update(feature_means=[0.0, 0.0, 0.0])),
        _edit_json(lambda d: d["norm_stats"].update(target_stds=[float("nan"), 1.0])),
        _edit_json(lambda d: d["norm_stats"]["feature_means"].__setitem__(0, "1.5")),
        _edit_json(lambda d: d["norm_stats"]["target_stds"].__setitem__(1, True)),
    ],
    ids=["malformed", "list", "no-norm-stats", "index-999", "index-twice",
         "float-indices", "narrow-stats", "nan-stat", "string-mean", "bool-std"],
)
def test_train_on_corrupt_sidecar_exits_one(workflow, tmp_path, capsys, corrupt):
    prefix = tmp_path / "ds"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    sidecar = prefix.with_suffix(".json")
    sidecar.write_text(corrupt(sidecar.read_text()))
    with pytest.raises(CorruptDataset, match=re.escape(str(sidecar))):
        load_dataset(prefix)
    assert main(["train", "--dataset", str(prefix), "--epochs", "5",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sidecar}")


@pytest.mark.parametrize(
    "corrupt",
    [
        _edit_json(lambda d: d["weights"][0][0].__setitem__(0, float("nan"))),
        _edit_json(lambda d: d.update(feature_mask="yes")),
        _edit_json(lambda d: d.update(feature_mask=[True] * 13)),
    ],
    ids=["nan-weight", "mask-string", "mask-13-long"],
)
def test_rank_with_corrupt_model_exits_one(workflow, tmp_path, capsys, corrupt):
    prefix = tmp_path / "ds"
    model = tmp_path / "model.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    assert main(["train", "--dataset", str(prefix), "--hidden", "none", "--epochs", "5",
                 "--out", str(model)]) == 0
    model.write_text(corrupt(model.read_text()))
    capsys.readouterr()
    assert main(["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                 "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {model}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "change",
    [{"workload_id": 5}, {"device_name": ["x"]}, {"power_w": "150"}, {"perf_ips": True}],
    ids=["numeric-workload-id", "list-device-name", "string-power", "bool-perf"],
)
def test_dataset_build_of_coerced_sample_exits_one(workflow, tmp_path, capsys, change):
    samples = tmp_path / "samples"
    samples.mkdir()
    good = sorted((workflow / "samples").glob("*.json"))[:3]
    for path in good:
        (samples / path.name).write_text(path.read_text())
    (samples / "bad.json").write_text(
        _edit_json(lambda d: d.update(change))(good[0].read_text()))
    assert main(["dataset", "build", "--samples", str(samples),
                 "--out", str(tmp_path / "ds")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "ds.csv").exists()


def test_dataset_build_empty_dir_exits_one(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["dataset", "build", "--samples", str(empty), "--out",
                 str(tmp_path / "ds")]) == 1


def test_module_entry_point(corpus_path, tmp_path):
    out = tmp_path / "p.json"
    # run from the directory holding the imported package, so the child
    # process finds it with or without an install
    proc = subprocess.run(
        [sys.executable, "-m", "wattrank", "profile", str(corpus_path), "--out", str(out)],
        capture_output=True, text=True, cwd=Path(wattrank.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert profile_from_json(out.read_text()).total == 20
