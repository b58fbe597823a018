import json
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import wattrank
from wattrank import synthetic
from wattrank.cli import build_parser, main
from wattrank.dataset_builder import (
    CorruptDataset,
    LabeledSample,
    NormStats,
    load_dataset,
    sample_to_json,
)
from wattrank.device_catalog import default_catalog, save_catalog
from wattrank.estimator import TrainConfig, init_model, save_model
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


def test_profile_of_garbage_statement_exits_one(tmp_path, capsys):
    ptx = tmp_path / "garbage.ptx"
    ptx.write_text("mov.u32 %r1, %r2;\n%r1, %r2;\n")
    assert main(["profile", str(ptx)]) == 1
    assert "line 2" in capsys.readouterr().err


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
    """Files for the full CLI pipeline, from one small synthetic experiment.
    Run ``i`` has ``run{i}.csv`` and ``run{i}.meta.json``; run 0 is workload
    ``cnn_000``, profiled in ``cnn_000.profile.json``."""
    root = tmp_path_factory.mktemp("workflow")
    experiment = synthetic.generate(synthetic.SyntheticConfig(n_workloads=8, seed=3))
    samples_dir = root / "samples"
    samples_dir.mkdir()
    profiles: dict[str, object] = {}
    for index, run in enumerate(experiment.runs):
        ptx = root / f"{run.meta.workload_id}.ptx"
        if not ptx.exists():
            ptx.write_text(experiment.kernels[run.meta.workload_id])
        power = root / f"run{index}.csv"
        power.write_text(run.power_csv_text)
        meta = root / f"run{index}.meta.json"
        meta.write_text(json.dumps({
            "workload_id": run.meta.workload_id,
            "device_name": run.meta.device_name,
            "wall_clock_s": run.meta.wall_clock_s,
            "repetitions": run.meta.repetitions,
        }))
        prof = root / f"{run.meta.workload_id}.profile.json"
        if not prof.exists():
            assert main(["profile", str(ptx), "--workload-id", run.meta.workload_id,
                         "--out", str(prof)]) == 0
        assert main([
            "ingest", "--power", str(power), "--meta", str(meta),
            "--profile", str(prof), "--out", str(samples_dir / f"sample{index}.json"),
        ]) == 0
    return root


def test_ingest_writes_the_samples_of_ingest_experiment(workflow, tmp_path, capsys):
    experiment = synthetic.generate(synthetic.SyntheticConfig(n_workloads=8, seed=3))
    samples = synthetic.ingest_experiment(experiment)
    assert len(samples) == 24
    for index, sample in enumerate(samples):
        written = (workflow / "samples" / f"sample{index}.json").read_text(encoding="utf-8")
        assert written == sample_to_json(sample) + "\n", index
    out = tmp_path / "sample.json"
    capsys.readouterr()
    assert main(["ingest", "--power", str(workflow / "run1.csv"),
                 "--meta", str(workflow / "run1.meta.json"),
                 "--profile", str(workflow / "cnn_000.profile.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"cnn_000 on 2080Ti: 121.01 W, 7.149e+08 inst/s (0 0 W rows dropped) -> {out}\n")


def test_dataset_build_group_by_workload_keeps_each_workload_on_one_side(workflow):
    def sides(prefix, *flags):
        """Each workload's sides, one per row, as the written sidecar puts them."""
        assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                     "--out", str(prefix), *flags]) == 0
        sidecar = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        side = {i: "train" for i in sidecar["train_indices"]}
        side.update({i: "val" for i in sidecar["val_indices"]})
        by_workload: dict[str, list[str]] = {}
        for i, sample in enumerate(load_dataset(prefix).samples):
            by_workload.setdefault(sample.workload_id, []).append(side[i])
        assert sorted(map(len, by_workload.values())) == [3] * 8  # 8 workloads x 3 devices
        return by_workload

    grouped = sides(workflow / "grouped", "--group-by-workload")
    assert all(len(set(rows)) == 1 for rows in grouped.values()), grouped
    # without the flag the runs are split, and some workload straddles the cut
    assert any(len(set(rows)) == 2 for rows in sides(workflow / "by-run").values())


def test_train_defaults_are_those_of_train_config():
    args = build_parser().parse_args(["train", "--dataset", "ds", "--out", "model.json"])
    assert TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)}) == (
        TrainConfig())


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


def test_rank_nan_power_cap_exits_one(workflow, tmp_path, capsys):
    prefix, model = tmp_path / "ds", tmp_path / "model.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    assert main(["train", "--dataset", str(prefix), "--hidden", "none", "--epochs", "5",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                 "--model", str(model), "--power-cap", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: power cap must be a number, got nan\n"
    assert captured.out == ""


def test_eval_prints_the_metrics_that_train_printed(workflow, tmp_path, capsys):
    prefix, out = tmp_path / "ds", tmp_path / "model.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", str(prefix), "--hidden", "none",
                 "--epochs", "200", "--patience", "200", "--lr", "0.05",
                 "--out", str(out)]) == 0
    trained = capsys.readouterr().out
    assert main(["eval", "--model", str(out), "--dataset", str(prefix)]) == 0
    # eval reads the saved dataset and standardizes with the statistics the
    # model was trained on
    evaluated = capsys.readouterr().out
    assert [line.replace("mlp", "model", 1) for line in trained.splitlines()
            if line.startswith("mlp")] == evaluated.splitlines()


@pytest.mark.parametrize(
    "argv",
    [["rank", "--ptx", "k.ptx", "--model", "m.json", "--power-cap", "abc"],
     ["rank", "--ptx", "k.ptx", "--model", "m.json", "--format", "xml"],
     ["train", "--dataset", "ds", "--select-threshold", "0.5", "--out", "m.json"],
     ["train", "--dataset", "ds"], ["frobnicate"], []],
    ids=["power-cap-abc", "format-xml", "removed-select-threshold", "missing-out",
         "unknown-command", "no-command"],
)
def test_usage_errors_exit_one(argv, capsys):
    """Exit 2 means only that no device is left to rank."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: wattrank") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--help"])
    assert excinfo.value.code == 0
    assert "--select-threshold" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--select-threshold", "1.5"], ["--select-threshold", "nan"], ["--hidden", "-3"],
     ["--hidden", "0"], ["--epochs", "0"], ["--epochs", "-5"], ["--lr", "0"],
     ["--lr", "-0.01"], ["--lr", "nan"], ["--lr", "inf"], ["--patience", "0"],
     ["--patience", "-1"], ["--hidden", ","], ["--hidden", " "], ["--hidden", ",,"],
     ["--hidden", ""], ["--hidden", "28,,14"], ["--hidden", "28,"], ["--hidden", "2.5"]],
    ids=["threshold-1.5", "threshold-nan", "hidden-negative", "hidden-zero",
         "epochs-zero", "epochs-negative", "lr-zero", "lr-negative", "lr-nan", "lr-inf",
         "patience-zero", "patience-negative", "hidden-comma", "hidden-space",
         "hidden-commas", "hidden-empty", "hidden-empty-item", "hidden-trailing-comma",
         "hidden-fraction"],
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
        ("meta", _edit_json(lambda d: d.update(workload_id="other_kernel"))),
        ("profile", _edit_json(lambda d: d.update(workload_id="other_kernel"))),
        ("meta", _edit_json(lambda d: d.update(repetitions=10**400))),
        ("meta", _edit_json(lambda d: d.update(wall_clock_s=1e-320))),
    ],
    ids=["meta-malformed", "meta-nan-wall-clock", "meta-infinite-wall-clock",
         "meta-fractional-repetitions", "meta-bool-repetitions",
         "meta-numeric-workload-id", "meta-string-wall-clock",
         "profile-counts-list", "profile-bool-count", "profile-numeric-workload-id",
         "meta-other-workload", "profile-other-workload",
         "meta-repetitions-overflow-float", "meta-wall-clock-makes-infinite-perf"],
)
def test_ingest_of_bad_meta_or_profile_exits_one(workflow, tmp_path, capsys, which, corrupt):
    files = {"meta": workflow / "run0.meta.json",
             "profile": workflow / "cnn_000.profile.json"}
    bad = tmp_path / f"bad.{which}.json"
    bad.write_text(corrupt(files[which].read_text()))
    files[which] = bad
    assert main(["ingest", "--power", str(workflow / "run0.csv"),
                 "--meta", str(files["meta"]), "--profile", str(files["profile"]),
                 "--out", str(tmp_path / "sample.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "sample.json").exists()


@pytest.mark.parametrize(
    "change,named,blamed",
    [
        (lambda d: d.update(device_name="A100"), ["'A100'", "V100", "2080Ti", "1080Ti"],
         "field 'name'"),
        (lambda d: d.pop("wall_clock_s"), ["missing", "'wall_clock_s'"], "row 0"),
    ],
    ids=["absent-device", "no-wall-clock"],
)
def test_ingest_error_names_the_bad_input(workflow, tmp_path, capsys, change, named, blamed):
    meta = tmp_path / "meta.json"
    meta.write_text(_edit_json(change)((workflow / "run0.meta.json").read_text()))
    assert main(["ingest", "--power", str(workflow / "run0.csv"), "--meta", str(meta),
                 "--profile", str(workflow / "cnn_000.profile.json"),
                 "--out", str(tmp_path / "sample.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and blamed not in err
    assert all(text in err for text in named), err


def test_ingest_reports_dropped_zero_watt_rows(workflow, tmp_path, capsys):
    power = tmp_path / "power.csv"
    power.write_text("timestamp, power.draw [W]\n" + "".join(
        f"2021/03/01 10:00:{s:02d}.000, {0.0 if s % 4 == 1 else 150.0:.2f} W\n"
        for s in range(12)
    ))
    capsys.readouterr()
    assert main(["ingest", "--power", str(power),
                 "--meta", str(workflow / "run0.meta.json"),
                 "--profile", str(workflow / "cnn_000.profile.json"),
                 "--out", str(tmp_path / "sample.json")]) == 0
    out = capsys.readouterr().out
    assert "150.00 W" in out and "(3 0 W rows dropped)" in out


_NOT_UTF8 = b"\xff\xfe\x00b\x00a\x00d\x00"
_DEEP_JSON = "[" * 100000  # nested deeper than the JSON decoder can follow
_LONG_FIELD = "1" * 140000  # longer than the CSV reader's field size limit


@pytest.mark.parametrize(
    "command",
    ["profile", "devices-list", "devices-add", "rank-ptx", "rank-model", "ingest-profile",
     "ingest-meta", "ingest-power", "dataset-build", "train-dataset"],
)
def test_non_utf8_input_exits_one(workflow, tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_NOT_UTF8)
    (tmp_path / "samples").mkdir()
    (tmp_path / "samples" / "s.json").write_bytes(_NOT_UTF8)
    (tmp_path / "ds.csv").write_bytes(_NOT_UTF8)
    ptx = str(next(workflow.glob("cnn_*.ptx")))

    def ingest(**files):
        files = {"profile": workflow / "cnn_000.profile.json",
                 "meta": workflow / "run0.meta.json", "power": workflow / "run0.csv", **files}
        flags = [x for name, path in files.items() for x in (f"--{name}", str(path))]
        return ["ingest", *flags, "--out", str(tmp_path / "o")]

    argv = {
        "profile": ["profile", str(bad)],
        "devices-list": ["devices", "list", "--catalog", str(bad)],
        "devices-add": ["devices", "add", "--file", str(bad), "--out", str(tmp_path / "o")],
        "rank-ptx": ["rank", "--ptx", str(bad), "--model", str(tmp_path / "m.json")],
        "rank-model": ["rank", "--ptx", ptx, "--model", str(bad)],
        "ingest-profile": ingest(profile=bad),
        "ingest-meta": ingest(meta=bad),
        "ingest-power": ingest(power=bad),
        "dataset-build": ["dataset", "build", "--samples", str(tmp_path / "samples"),
                          "--out", str(tmp_path / "o")],
        "train-dataset": ["train", "--dataset", str(tmp_path / "ds"),
                          "--out", str(tmp_path / "o")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command",
    ["devices-list", "devices-add", "rank-catalog", "ingest-profile", "ingest-meta",
     "ingest-catalog", "dataset-build"],
)
def test_deeply_nested_json_exits_one(workflow, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_JSON)
    (tmp_path / "samples").mkdir()
    (tmp_path / "samples" / "s.json").write_text(_DEEP_JSON)
    ingest = ["ingest", "--profile", str(workflow / "cnn_000.profile.json"),
              "--meta", str(workflow / "run0.meta.json"), "--power", str(workflow / "run0.csv"),
              "--out", str(tmp_path / "o")]
    argv = {
        "devices-list": ["devices", "list", "--catalog", str(deep)],
        "devices-add": ["devices", "add", "--file", str(deep), "--out", str(tmp_path / "o")],
        "rank-catalog": ["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                         "--catalog", str(deep), "--model", str(tmp_path / "m.json")],
        "ingest-profile": [*ingest, "--profile", str(deep)],
        "ingest-meta": [*ingest, "--meta", str(deep)],
        "ingest-catalog": [*ingest, "--catalog", str(deep)],
        "dataset-build": ["dataset", "build", "--samples", str(tmp_path / "samples"),
                          "--out", str(tmp_path / "o")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_ingest_of_power_log_with_a_long_field_exits_one(workflow, tmp_path, capsys):
    power = tmp_path / "power.csv"
    power.write_text(f"timestamp, power.draw [W]\n1, 150 W\n{_LONG_FIELD}, 150 W\n")
    capsys.readouterr()
    assert main(["ingest", "--power", str(power),
                 "--meta", str(workflow / "run0.meta.json"),
                 "--profile", str(workflow / "cnn_000.profile.json"),
                 "--out", str(tmp_path / "sample.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 3: ") and "field limit" in err
    assert not (tmp_path / "sample.json").exists()


@pytest.mark.parametrize("damage", ["long-field", "swapped-header"])
def test_train_on_dataset_with_bad_csv_exits_one(workflow, tmp_path, capsys, damage):
    prefix = tmp_path / "ds"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    csv_path = prefix.with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    if damage == "long-field":
        lines[3] = _LONG_FIELD + lines[3][lines[3].index(","):]
    else:
        assert "sm_count,fp32_cores" in lines[0]
        lines[0] = lines[0].replace("sm_count,fp32_cores", "fp32_cores,sm_count")
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--dataset", str(prefix), "--epochs", "5",
                 "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    expected = "error: row 4: " if damage == "long-field" else "error: unexpected dataset header"
    assert err.startswith(expected) and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.fixture
def nan_catalog(tmp_path):
    path = tmp_path / "nan_catalog.json"
    save_catalog(default_catalog(), path)
    text = path.read_text()
    path.write_text(text.replace('"core_clock_mhz": 1530.0', '"core_clock_mhz": NaN', 1))
    assert path.read_text() != text
    return path


def _save_identity_norm_model(path):
    """An untrained linear model whose statistics leave features unscaled."""
    save_model(replace(init_model(14, [], seed=0), norm=NormStats(
        np.zeros(14), np.ones(14), np.full(2, 100.0), np.ones(2))), path)


def test_catalog_name_with_a_carriage_return_exits_one(workflow, tmp_path, capsys):
    catalog, model = tmp_path / "cr_catalog.json", tmp_path / "model.json"
    save_catalog([replace(default_catalog()[0], name="a\rb")], catalog)
    _save_identity_norm_model(model)
    for argv in (["devices", "list", "--catalog", str(catalog)],
                 ["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                  "--catalog", str(catalog), "--model", str(model), "--format", "csv"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "'name'" in captured.err
        assert captured.out == ""


def test_rank_of_a_catalog_whose_prediction_overflows_exits_one(workflow, tmp_path, capsys):
    catalog, model = tmp_path / "huge_catalog.json", tmp_path / "model.json"
    # schema-valid values whose weighted sum overflows a float in the perf output
    huge = replace(default_catalog()[0], memory_clock_mhz=1.7e308, memory_bandwidth_gbps=1.7e308)
    save_catalog([huge, *default_catalog()[1:]], catalog)
    _save_identity_norm_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        assert main(["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                     "--catalog", str(catalog), "--model", str(model), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: prediction for device 'V100' is not finite")
    assert captured.out == ""


def _reject_constant(token):
    raise AssertionError(f"stdout holds the non-JSON token {token}")


def test_rank_excludes_a_device_whose_prediction_is_not_positive(corpus_path, tmp_path, capsys):
    catalog, model = tmp_path / "hot.json", tmp_path / "model.json"
    _save_identity_norm_model(model)
    # a core clock of 20000 MHz drives the V100's predicted power below 0
    v100, *others = default_catalog()
    save_catalog([replace(v100, core_clock_mhz=20000.0), *others], catalog)
    rank = ["rank", "--ptx", str(corpus_path), "--catalog", str(catalog), "--model", str(model)]
    assert main([*rank, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert [e["device"] for e in doc["entries"]] == ["1080Ti", "2080Ti"]
    assert [p["device"] for p in doc["excluded"]] == ["V100"]
    assert doc["excluded"][0]["power_w"] < 0
    assert main(rank) == 0
    assert re.search(r"excluded:\n +V100 +-[0-9.]+ +[0-9.e+]+  not positive\n$",
                     capsys.readouterr().out)

    # every device out of range: no device is left to rank
    save_catalog([replace(d, core_clock_mhz=20000.0) for d in default_catalog()], catalog)
    assert main(rank) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no device left to rank; excluded 3 not positive, 0 over the power cap\n")
    assert captured.out == ""


def test_a_negative_seed_exits_one(workflow, tmp_path, capsys):
    samples, prefix = str(workflow / "samples"), tmp_path / "ds"
    assert main(["dataset", "build", "--samples", samples, "--out", str(prefix)]) == 0
    capsys.readouterr()
    for argv in (["dataset", "build", "--samples", samples, "--seed", "-1",
                  "--out", str(tmp_path / "other")],
                 ["train", "--dataset", str(prefix), "--seed", "-1",
                  "--out", str(tmp_path / "model.json")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "ds.json"]


def test_devices_list_of_nan_catalog_exits_one(nan_catalog, capsys):
    assert main(["devices", "list", "--catalog", str(nan_catalog)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "core_clock_mhz" in captured.err
    assert captured.out == ""


def test_rank_with_nan_catalog_exits_one(workflow, nan_catalog, tmp_path, capsys):
    prefix, model = tmp_path / "ds", tmp_path / "model.json"
    assert main(["dataset", "build", "--samples", str(workflow / "samples"),
                 "--out", str(prefix)]) == 0
    assert main(["train", "--dataset", str(prefix), "--hidden", "none", "--epochs", "5",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["rank", "--ptx", str(next(workflow.glob("cnn_*.ptx"))),
                 "--catalog", str(nan_catalog), "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "core_clock_mhz" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: f"[{text}]",
        _edit_json(lambda d: d.update(train_indices=[999, *d["train_indices"][1:]])),
        _edit_json(lambda d: d["train_indices"].append(d["val_indices"][0])),
        _edit_json(lambda d: d.update(train_indices=[float(i) for i in d["train_indices"]])),
        lambda text: _DEEP_JSON,
    ],
    ids=["malformed", "list", "index-999", "index-twice", "float-indices", "deep"],
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
        _edit_json(lambda d: d.update(version=True)),
        _edit_json(lambda d: d.update(version=1.0)),
        lambda text: _DEEP_JSON,
    ],
    ids=["nan-weight", "mask-string", "mask-13-long", "bool-version", "float-version",
         "deep"],
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


def test_dataset_build_whose_statistics_overflow_exits_one(tmp_path, capsys):
    samples = tmp_path / "samples"
    samples.mkdir()
    for i in range(10):
        (samples / f"s{i}.json").write_text(sample_to_json(LabeledSample(
            f"w{i}", "V100", np.full(14, 1.0 if i % 2 else 1.7e308), 100.0, 1e9)))
    assert main(["dataset", "build", "--samples", str(samples),
                 "--out", str(tmp_path / "ds")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err
    assert not (tmp_path / "ds.json").exists()


@pytest.mark.parametrize(
    "content,reason",
    [(b'{"workload_id": "cnn_000"}', "bad sample JSON: missing field 'device_name'"),
     (b'{"workload_id": "cnn_0', "bad sample JSON: "),
     (b"\xff\xfe\x00b\x00a\x00d\x00", "'utf-8' codec can't decode")],
    ids=["missing-field", "cut-short", "undecodable"],
)
def test_dataset_build_names_the_sample_it_cannot_read(workflow, tmp_path, capsys,
                                                        content, reason):
    samples = tmp_path / "samples"
    samples.mkdir()
    for path in sorted((workflow / "samples").glob("*.json"))[:10]:
        (samples / path.name).write_text(path.read_text())
    bad = samples / "sample_bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(["dataset", "build", "--samples", str(samples),
                 "--out", str(tmp_path / "ds")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: {reason}")
    assert captured.err.count("\n") == 1 and captured.out == ""
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
