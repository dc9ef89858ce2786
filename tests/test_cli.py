import argparse
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ifsproj
from ifsproj import cli, constructions, documents
from ifsproj.cli import MAX_SAMPLE_SIZE, build_parser, main
from ifsproj.dimension import sim_dim_gdifs, single_vertex_gdifs
from ifsproj.documents import (
    SchemaError,
    gdifs_equal,
    gdifs_from_document,
    gdifs_to_document,
    ifs_from_document,
    ifs_to_document,
    load_ifs,
    write_pgm,
    write_points_csv,
    write_scale_count_csv,
)
from ifsproj.estimation import box_dim, default_scales, sample_attractor
from ifsproj.fixtures import BUILDERS, fixture_document, fixture_ifs, fixture_path, write_all
from ifsproj.geometry import DegenerateSystemError, Similarity, Word

LOG3_LOG2 = math.log(3.0) / math.log(2.0)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    write_all(directory)
    return directory


def words_built(monkeypatch) -> list:
    """The Word objects built from now on, in order."""
    built = []
    post_init = Word.__post_init__

    def spy(word):
        built.append(word)
        post_init(word)

    monkeypatch.setattr(Word, "__post_init__", spy)
    return built


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out.strip() else None)


class TestDocuments:
    def test_ifs_round_trip(self, sierpinski):
        doc = ifs_to_document(sierpinski.ratios, sierpinski.rotations, sierpinski.translations)
        again = ifs_from_document(doc)
        for a, b in zip(sierpinski, again):
            assert abs(a.ratio - b.ratio) < 1e-15
            assert np.allclose(a.rotation, b.rotation, atol=1e-15)
            assert np.allclose(a.translation, b.translation, atol=1e-15)

    def test_gdifs_round_trip(self, sierpinski):
        g = single_vertex_gdifs(sierpinski)
        assert gdifs_equal(g, gdifs_from_document(gdifs_to_document(g)))

    @pytest.mark.parametrize("drop", ["from", "ratio", "rotation"])
    def test_gdifs_edge_missing_a_key_is_a_schema_error(self, sierpinski, drop):
        doc = gdifs_to_document(single_vertex_gdifs(sierpinski))
        del doc["edges"][1][drop]
        with pytest.raises(SchemaError):
            gdifs_from_document(doc)

    def test_rejects_wrong_schema_version(self):
        doc = fixture_document("cantor_third")
        doc["schema_version"] = "99"
        with pytest.raises(SchemaError):
            ifs_from_document(doc)

    def test_rejects_malformed_maps(self):
        doc = fixture_document("cantor_third")
        doc["maps"][0].pop("ratio")
        with pytest.raises(SchemaError):
            ifs_from_document(doc)

    def test_degenerate_document_raises_distinct_error(self):
        with pytest.raises(DegenerateSystemError):
            ifs_from_document(fixture_document("degenerate_single_fixed_point"))

    def test_load_ifs_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_ifs(tmp_path / "missing.json")

    def test_scale_count_csv(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_scale_count_csv(path, [0.5, 0.25], [3, 9])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scale,count"
        assert lines[1] == "0.5,3"

    def test_points_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        write_points_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 3

    def test_pgm_header_and_size(self, tmp_path):
        path = tmp_path / "cloud.pgm"
        rng = np.random.default_rng(0)
        write_pgm(path, rng.uniform(size=(1000, 2)), resolution=64)
        data = path.read_bytes()
        assert data.startswith(b"P5\n64 64\n255\n")
        assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64


class TestFixtures:
    def test_all_builders_produce_loadable_documents(self):
        for name in BUILDERS:
            if name == "degenerate_single_fixed_point":
                continue
            ifs = fixture_ifs(name)
            assert len(ifs) >= 2

    def test_shipped_fixture_files_match_builders(self):
        for name in BUILDERS:
            shipped = json.loads(fixture_path(name).read_text())
            assert shipped == fixture_document(name)

    def test_written_files_are_the_shipped_bytes(self, fixture_dir):
        for name in BUILDERS:
            assert (fixture_dir / f"{name}.json").read_bytes() == fixture_path(name).read_bytes()

    def test_unknown_fixture_name(self):
        with pytest.raises(KeyError):
            fixture_document("nope")


class TestCliSimdim:
    def test_sierpinski_value_and_header(self, capsys, fixture_dir):
        code, out = run_json(capsys, ["simdim", "--input", str(fixture_dir / "sierpinski_half.json")])
        assert code == 0
        assert abs(out["similarity_dim"] - LOG3_LOG2) < 1e-9
        assert out["tool"] == "ifsproj"
        assert out["fixture"] == "sierpinski_half"
        assert out["tolerances"]["profile"] == "default"
        assert "seed" not in out  # only commands that take --seed report one

    def test_cantor_value(self, capsys, fixture_dir):
        code, out = run_json(capsys, ["simdim", "--input", str(fixture_dir / "cantor_third.json")])
        assert code == 0
        assert abs(out["similarity_dim"] - 0.6309297535714574) < 1e-9

    def test_degenerate_exits_three(self, capsys, fixture_dir):
        code = main(["simdim", "--input", str(fixture_dir / "degenerate_single_fixed_point.json")])
        assert code == 3

    def test_malformed_document_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": \"1\"}")
        assert main(["simdim", "--input", str(bad)]) == 2


# Each bad document is the sierpinski_half document with the entry at the
# key path replaced by the value.
BAD_DOCUMENTS = {
    "metadata string": (["metadata"], "sierpinski"),
    "metadata list": (["metadata"], [{"name": "sierpinski"}]),
    "metadata null": (["metadata"], None),
    "nan ratio": (["maps", 1, "ratio"], math.nan),
    "nan rotation": (["maps", 1, "rotation", 0], math.nan),
    "inf rotation": (["maps", 1, "rotation", 3], math.inf),
    "inf translation": (["maps", 1, "translation", 0], math.inf),
    "nan translation": (["maps", 1, "translation", 1], math.nan),
    "scalar translation": (["maps", 1, "translation"], 0.5),
    "identity map": (["maps", 1], {"ratio": 1.0, "rotation": [1, 0, 0, 1], "translation": [0, 0]}),
}

INPUT_COMMANDS = [
    ["simdim"],
    ["project-gdifs"],
    ["dimdrop"],
    ["estimate", "boxdim"],
    ["estimate", "project-boxdim"],
    ["estimate", "collapse-sweep"],
    ["estimate", "ssc-approx"],
    ["estimate", "cylinders"],
]


class TestCliBadDocuments:
    @pytest.mark.parametrize("command", INPUT_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("kind", sorted(BAD_DOCUMENTS))
    def test_exits_two_with_one_line(self, capsys, tmp_path, command, kind):
        doc = fixture_document("sierpinski_half")
        *keys, last = BAD_DOCUMENTS[kind][0]
        entry = doc
        for key in keys:
            entry = entry[key]
        entry[last] = BAD_DOCUMENTS[kind][1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(command + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("schema error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gdifs_document_rejects_non_finite_entries(self, sierpinski, value):
        doc = gdifs_to_document(single_vertex_gdifs(sierpinski))
        doc["edges"][2]["translation"][1] = value
        with pytest.raises(SchemaError, match="finite"):
            gdifs_from_document(doc)


class TestCliProjectGdifs:
    def test_c4_report_and_emitted_document(self, capsys, fixture_dir, tmp_path):
        code, out = run_json(
            capsys,
            [
                "project-gdifs",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--direction", "1,0",
                "--out", str(tmp_path),
            ],
        )
        assert code == 0
        assert out["vertices"] == 4
        assert out["edges"] == 12
        assert out["strongly_connected"]
        assert out["row_sum_max_error"] < 1e-9
        assert abs(out["gdifs_sim_dim"] - out["source_sim_dim"]) < 1e-8
        emitted = json.loads((tmp_path / "projection_gdifs.json").read_text())
        reloaded = gdifs_from_document(emitted)
        assert abs(sim_dim_gdifs(reloaded).value - out["gdifs_sim_dim"]) < 1e-9

    def test_single_vertex_for_homothety_system(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            ["project-gdifs", "--input", str(fixture_dir / "sierpinski_half.json"), "--l", "1"],
        )
        assert code == 0
        assert out["vertices"] == 1

    def test_infinite_group_exits_four(self, capsys, fixture_dir):
        code = main(
            ["project-gdifs", "--input", str(fixture_dir / "irrational_rotation_planar.json"), "--l", "1"]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "option",
        ["--l=0", "--direction=1,abc", "--direction=1,", "--direction=nan,0", "--direction=1,inf",
         "--direction="],
    )
    def test_bad_projection_option_exits_two(self, capsys, fixture_dir, option):
        code = main(["project-gdifs", "--input", str(fixture_dir / "c4_rotation.json"), option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("schema error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "command",
        [["project-gdifs"], ["estimate", "project-boxdim", "--n", "1000"],
         ["estimate", "collapse-sweep", "--n", "1000"]],
        ids=["project-gdifs", "project-boxdim", "collapse-sweep"],
    )
    @pytest.mark.parametrize("l", ["0", "1", "7"])
    def test_direction_with_l_exits_two(self, capsys, fixture_dir, command, l):
        argv = [*command, "--input", str(fixture_dir / "c4_rotation.json")]
        code = main([*argv, "--direction", "1,0", "--l", l])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "schema error: --direction and --l exclude each other\n"

    @pytest.mark.parametrize("mode", ["project-boxdim", "collapse-sweep"])
    @pytest.mark.parametrize("method", ["deterministic", "chaos"])
    @pytest.mark.parametrize(
        "option, message",
        [("--direction=1,0,0", "--direction needs 2 components"), ("--l=3", "--l must lie in 1..2")],
    )
    def test_mismatched_map_exits_two_before_sampling(
        self, capsys, monkeypatch, fixture_dir, mode, method, option, message
    ):
        def unsampled(*args, **kwargs):
            raise AssertionError("the map is checked before any sampling")

        monkeypatch.setattr(cli, "sample_attractor", unsampled)
        argv = ["estimate", mode, "--input", str(fixture_dir / "irrational_rotation_planar.json")]
        code = main([*argv, "--n", "10000", "--method", method, option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"schema error: {message}\n"

    def test_unwritable_out_exits_six(self, capsys, fixture_dir, tmp_path):
        regular = tmp_path / "regular"
        regular.write_text("")
        code = main(
            [
                "project-gdifs",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--direction", "1,0",
                "--out", str(regular / "sub"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 6
        assert err.startswith("I/O error:")
        assert "Traceback" not in err


class TestCliDimdrop:
    def test_sierpinski(self, capsys, fixture_dir):
        code, out = run_json(capsys, ["dimdrop", "--input", str(fixture_dir / "sierpinski_half.json")])
        assert code == 0
        assert abs(out["s_reduced"] - 1.0) < 1e-9
        assert out["witness_word_a"] == [1]
        assert out["witness_word_b"] == [2]

    def test_cantor_pair_reduces_to_zero(self, capsys, fixture_dir):
        code, out = run_json(capsys, ["dimdrop", "--input", str(fixture_dir / "cantor_pair_r2.json")])
        assert code == 0
        assert out["s_reduced"] < 1e-9

    def test_c4_strict_drop(self, capsys, fixture_dir):
        code, out = run_json(capsys, ["dimdrop", "--input", str(fixture_dir / "c4_rotation.json")])
        assert code == 0
        assert out["s_reduced"] < out["s_original"]
        assert out["closure_reason"] == "closed"
        assert out["closure_size"] == 4

    def test_infinite_group_exits_four(self, capsys, fixture_dir):
        code = main(["dimdrop", "--input", str(fixture_dir / "irrational_rotation_planar.json")])
        assert code == 4

    def test_l_zero_exits_two(self, capsys, fixture_dir):
        # 0 is a value, not "unset": it once ran as the default l = d - 1.
        code = main(["dimdrop", "--input", str(fixture_dir / "sierpinski_half.json"), "--l", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "schema error: --l must lie in 1..1\n"

    def test_l_of_d_exits_two(self, capsys, fixture_dir):
        # dimdrop needs l < d; --l d once ran and failed as a numeric failure.
        code = main(["dimdrop", "--input", str(fixture_dir / "sierpinski_half.json"), "--l", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "schema error: --l must lie in 1..1\n"

    def test_one_dimensional_system_without_l_exits_five(self, capsys, fixture_dir):
        code = main(["dimdrop", "--input", str(fixture_dir / "cantor_third.json")])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.err.startswith("numeric failure:")


class TestCliEstimate:
    def test_boxdim_with_outputs(self, capsys, fixture_dir, tmp_path):
        code, out = run_json(
            capsys,
            [
                "estimate", "boxdim",
                "--input", str(fixture_dir / "sierpinski_half.json"),
                "--n", "100000",
                "--out", str(tmp_path),
            ],
        )
        assert code == 0
        assert abs(out["slope"] - LOG3_LOG2) < 0.05
        assert (tmp_path / "scale_counts.csv").exists()
        assert (tmp_path / "points.csv").exists()
        assert (tmp_path / "cloud.pgm").exists()

    def test_project_boxdim_with_direction(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            [
                "estimate", "project-boxdim",
                "--input", str(fixture_dir / "sierpinski_half.json"),
                "--n", "100000",
                "--direction", "1,0",
            ],
        )
        assert code == 0
        assert out["projected_dim"] == 1
        assert abs(out["slope"] - 1.0) < 0.1

    def test_collapse_sweep_csv(self, capsys, fixture_dir, tmp_path):
        code, out = run_json(
            capsys,
            [
                "estimate", "collapse-sweep",
                "--input", str(fixture_dir / "irrational_rotation_planar.json"),
                "--n", "100000",
                "--direction", "1,0",
                "--out", str(tmp_path),
            ],
        )
        assert code == 0
        assert len(out["covering_sums"]) == len(out["scales"])
        rows = (tmp_path / "collapse_sweep.csv").read_text().split()[1:]
        scales = [float(row.split(",")[0]) for row in rows]
        counts = [int(row.split(",")[1]) for row in rows]
        assert scales == out["scales"]
        # One count per scale feeds both the CSV and N(s) s^t (d = 1).
        t = out["exponent_t"]
        assert out["covering_sums"] == [c * s**t for c, s in zip(counts, scales)]
        assert scales == sorted(scales, reverse=True)

    def test_out_of_range_quotients_exit_five(self, capsys, fixture_dir):
        code = main(
            [
                "estimate", "boxdim",
                "--input", str(fixture_dir / "sierpinski_half.json"),
                "--n", "1000",
                # Quotients at the finest scales pass 2^63; once counted as cast garbage.
                "--scales", "3..70",
            ]
        )
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("numeric failure:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_ssc_approx(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            [
                "estimate", "ssc-approx",
                "--input", str(fixture_dir / "sierpinski_half.json"),
                "--epsilon", "0.3",
            ],
        )
        assert code == 0
        assert out["subsystem_sim_dim"] >= LOG3_LOG2 - 0.3
        assert not out["trivial_fallback"]

    def test_cylinders_identity_target(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--delta", "0.5",
                "--mass-target", "0.5",
            ],
        )
        assert code == 0
        assert out["word_count"] > 0
        assert out["mass"] <= 1.0 + 1e-9
        assert out["closure_reason"] == "closed"
        assert out["closure_size"] == 4

    def test_cylinders_stop_at_the_word_budget(self, capsys, fixture_dir, monkeypatch):
        # At delta 0.01 the unmatched words of the irrational system number
        # 3, 9, 24, 66, ... by depth, so extending depth 4 would build 198 > 100.
        monkeypatch.setattr(constructions, "_WORD_BUDGET", 100)
        code = main(
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "irrational_rotation_planar.json"),
                "--angle", "2.0", "--delta", "0.01", "--depth-cap", "20",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: cylinder search exceeded the word budget at depth 5\n"
        )

    def test_cylinders_reports_certified_infinite_closure(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "irrational_rotation_planar.json"),
                "--angle", "0.5",
                "--t", "0.8",
                "--mass-target", "0.5",
                "--depth-cap", "6",
            ],
        )
        assert code == 0
        assert out["closure_reason"] == "cyclic_orbit_exceeds_cap"
        assert out["closure_size"] == 5001

    def test_cylinders_reports_dropped_words(self, capsys, fixture_dir):
        code, out = run_json(
            capsys,
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--angle", "1.5707963267948966",
                "--mass-target", "0.9",
            ],
        )
        assert code == 0
        # 895 words match the target; the certificate keeps 408 of them.
        assert out["word_count"] == 408
        assert out["dropped_words"] == 487
        assert out["partial"]

    def test_cylinders_build_no_word_objects(self, capsys, fixture_dir, monkeypatch):
        # The cylinders workload's c4 command: the words stay level rows.
        built = words_built(monkeypatch)
        code, out = run_json(
            capsys,
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--angle", "1.5707963267948966", "--delta", "0.2", "--mass-target", "0.9",
            ],
        )
        assert code == 0 and out["word_count"] > 0
        assert built == []

    def test_ssc_approx_builds_only_the_printed_words(self, capsys, fixture_dir, monkeypatch):
        built = words_built(monkeypatch)
        code, out = run_json(
            capsys,
            [
                "estimate", "ssc-approx",
                "--input", str(fixture_dir / "sierpinski_half.json"),
                "--epsilon", "0.3",
            ],
        )
        assert code == 0
        assert len(built) == min(50, out["word_count"])
        assert [list(w.indices) for w in built] == out["words"]

    def test_ssc_approx_without_t_estimates_it_by_box_counting(self, capsys, fixture_dir):
        # c4_rotation carries no osc_certified flag, so t is the box-count
        # slope of a 10^5-point sample at the --seed.
        code, out = run_json(
            capsys,
            [
                "estimate", "ssc-approx",
                "--input", str(fixture_dir / "c4_rotation.json"),
                "--epsilon", "0.5",
            ],
        )
        assert code == 0
        cloud = sample_attractor(fixture_ifs("c4_rotation"), 10**5, seed=0)
        assert out["exponent_t"] == box_dim(cloud, default_scales(cloud)).slope

    def test_cylinders_angle_on_a_spatial_system_exits_two(self, capsys, fixture_dir):
        code = main(
            [
                "estimate", "cylinders",
                "--input", str(fixture_dir / "example_7_2_r4.json"),
                "--angle", "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "schema error: --angle targets need a planar system\n"

    def test_reversed_scales_give_the_same_ladder(self, capsys, fixture_dir):
        argv = [
            "estimate", "project-boxdim",
            "--input", str(fixture_dir / "irrational_rotation_planar.json"),
            "--n", "20000", "--direction", "1,0",
        ]
        reports = [run_json(capsys, [*argv, "--scales", spec]) for spec in ("10..5", "5..10")]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and len(reports[0][1]["scales"]) == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["boxdim", "--input", "sierpinski_half.json"],
            ["project-boxdim", "--input", "example_7_2_r4.json", "--l", "2"],
            ["project-boxdim", "--input", "example_7_2_r4.json", "--l", "2", "--method", "chaos"],
        ],
    )
    def test_pgm_reads_the_recorded_bounds(self, capsys, fixture_dir, tmp_path, monkeypatch, argv):
        # Every sampled cloud but the unprojected chaos game's records its
        # bounds, and the raster is framed by them: the bytes of bounds
        # found again over the counted cloud.
        argv = ["estimate", *argv, "--n", "20000", "--out", str(tmp_path)]
        argv[3] = str(fixture_dir / argv[3])
        written = []

        def spy(path, points, **kwargs):
            written.append(points)
            write_pgm(path, points, **kwargs)

        monkeypatch.setattr(cli, "write_pgm", spy)

        def unread(points):
            raise AssertionError("write_pgm found the column bounds again")

        with monkeypatch.context() as patched:
            patched.setattr(documents, "column_bounds", unread)
            code, _ = run_json(capsys, argv)
        assert code == 0 and len(written) == 1
        write_pgm(tmp_path / "again.pgm", written[0])
        assert (tmp_path / "cloud.pgm").read_bytes() == (tmp_path / "again.pgm").read_bytes()

    @pytest.mark.parametrize(
        "mode, option, value",
        [
            ("cylinders", "--delta", "nan"),
            ("cylinders", "--delta", "inf"),
            ("cylinders", "--t", "nan"),
            ("cylinders", "--t", "-inf"),
            ("cylinders", "--depth-cap", "0"),
            ("cylinders", "--depth-cap", "-3"),
            ("cylinders", "--angle", "nan"),
            ("cylinders", "--angle", "inf"),
            ("ssc-approx", "--epsilon", "nan"),
            ("ssc-approx", "--epsilon", "inf"),
            ("ssc-approx", "--t", "nan"),
            ("collapse-sweep", "--t", "nan"),
            ("collapse-sweep", "--t", "inf"),
            ("collapse-sweep", "--t", "0"),
        ],
    )
    def test_invalid_parameter_exits_five(self, capsys, fixture_dir, mode, option, value):
        code = main(
            [
                "estimate", mode,
                "--input", str(fixture_dir / "sierpinski_half.json"),
                f"{option}={value}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("numeric failure:")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_exits_two_at_parse_time(self, capsys, fixture_dir, seed):
        argv = [
            "estimate", "boxdim",
            "--input", str(fixture_dir / "sierpinski_half.json"),
            "--method", "chaos",
            f"--seed={seed}",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("ifsproj estimate boxdim: error: argument --seed:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_sample_size_above_the_cap_exits_two_at_parse_time(
        self, capsys, fixture_dir, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the attractor was sampled")

        monkeypatch.setattr(cli, "sample_attractor", no_sampling)
        argv = ["--input", str(fixture_dir / "sierpinski_half.json")]
        assert build_parser().parse_args(
            ["estimate", "boxdim", *argv, "--n", str(MAX_SAMPLE_SIZE)]
        ).n == MAX_SAMPLE_SIZE
        for method in ("deterministic", "chaos"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["estimate", "boxdim", *argv, "--method", method,
                     "--n", str(MAX_SAMPLE_SIZE + 1)]
                )
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert captured.err.startswith("ifsproj estimate boxdim: error: argument --n:")
            assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sample_size_below_one_exits_two_at_parse_time(self, capsys, fixture_dir, n):
        argv = ["estimate", "boxdim", "--input", str(fixture_dir / "sierpinski_half.json")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--n={n}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("ifsproj estimate boxdim: error: argument --n:")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["boxdim", "project-boxdim", "collapse-sweep"])
    @pytest.mark.parametrize("scales", ["--scales=", "--scales=3", "--scales=a..b"])
    def test_bad_scales_exit_two(self, capsys, fixture_dir, mode, scales):
        # An empty ladder once fell back to the default one.
        code = main(
            ["estimate", mode, "--input", str(fixture_dir / "sierpinski_half.json"), "--n", "1000",
             scales]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("schema error: bad --scales")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["boxdim", "project-boxdim", "collapse-sweep"])
    @pytest.mark.parametrize("scales", ["-2000..3", "3..1080", "3..2000000"])
    def test_scales_leaving_the_floats_exit_five(self, capsys, fixture_dir, mode, scales):
        # 2.0**2000 raised an OverflowError traceback; 3..2000000 built its
        # two-million-scale ladder (64 MB of floats) before a zero scale failed.
        argv = ["estimate", mode, "--input", str(fixture_dir / "sierpinski_half.json")]
        tracemalloc.start()
        try:
            code = main([*argv, "--n", "1000", f"--scales={scales}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith(f"numeric failure: --scales '{scales}'")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert peak < 16 * 2**20

    def test_overflowing_covering_sum_exits_five(self, capsys, fixture_dir):
        code = main(
            [
                "estimate", "collapse-sweep",
                "--input", str(fixture_dir / "irrational_rotation_planar.json"),
                "--n", "1000", "--t", "5000", "--scales", "0..1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.startswith("numeric failure:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_deterministic_reports_are_reproducible(self, capsys, fixture_dir):
        argv = [
            "estimate", "boxdim",
            "--input", str(fixture_dir / "cantor_third.json"),
            "--n", "10000",
            "--seed", "7",
        ]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a == b


PINNED_SWEEP = []
for name in ("projection_sweep_seed1.json", "projection_sweep_seed2.json"):
    # The seedless boxdim command is pinned in both files; it runs once.
    cases = json.loads((Path(__file__).parent / "data" / name).read_text())
    PINNED_SWEEP += [case for case in cases if case not in PINNED_SWEEP]


class TestProjectionSweepPin:
    """The box-counting reports of perfbench's projection-sweep workload: at
    seed 1 as the per-scale counter computed them before the dyadic ladder,
    and at the holdout seed 2 (other directions, another chaos seed) as the
    per-map sampler computed them before the in-place one."""

    @pytest.mark.parametrize("case", PINNED_SWEEP, ids=lambda c: " ".join(c["args"][1:]))
    def test_report_fields(self, capsys, fixture_dir, case):
        argv = [*case["args"], "--input", str(fixture_dir / f"{case['fixture']}.json")]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert out["points"] == case["points"]
        assert out["scales"] == case["scales"]
        assert out["counts"] == case["counts"]
        assert abs(out["slope"] - case["slope"]) <= 1e-12


PINNED_COLLAPSE = json.loads((Path(__file__).parent / "data" / "collapse_sweep.json").read_text())


class TestCollapseSweepPin:
    """The collapse-sweep report of perfbench's projection-sweep workload (the
    same command at seeds 1 and 2), as computed before the int32 cell keys."""

    @pytest.mark.parametrize("case", PINNED_COLLAPSE, ids=lambda c: " ".join(c["args"][1:]))
    def test_report_fields(self, capsys, fixture_dir, case):
        argv = [*case["args"], "--input", str(fixture_dir / f"{case['fixture']}.json")]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert out["exponent_t"] == case["exponent_t"]
        assert out["scales"] == case["scales"]
        assert out["covering_sums"] == case["covering_sums"]


# The options of each command and each estimate mode, besides --help: the
# options its handler reads.
COMMAND_OPTIONS = {
    "simdim": {"--input", "--json"},
    "project-gdifs": {"--input", "--l", "--direction", "--out", "--json"},
    "dimdrop": {"--input", "--l", "--json"},
    "estimate boxdim": {"--input", "--n", "--seed", "--method", "--scales", "--out", "--json"},
    "estimate project-boxdim": {
        "--input", "--n", "--seed", "--method", "--l", "--direction", "--scales", "--out", "--json"
    },
    "estimate collapse-sweep": {
        "--input", "--n", "--seed", "--method", "--l", "--direction", "--t", "--scales", "--out",
        "--json",
    },
    "estimate ssc-approx": {"--input", "--epsilon", "--t", "--seed", "--json"},
    "estimate cylinders": {
        "--input", "--angle", "--delta", "--t", "--mass-target", "--depth-cap", "--json"
    },
    "fixtures": {"--out", "--json"},
}

# One option of each kind that some command does not take, with a command
# that once accepted and ignored it.
UNTAKEN_OPTIONS = [
    ("simdim", "--scales", "3..10"),
    ("dimdrop", "--out", "d"),
    ("fixtures", "--l", "1"),
    ("project-gdifs", "--seed", "1"),
    ("estimate boxdim", "--direction", "1,0"),
    ("estimate boxdim", "--delta", "0.2"),
    ("estimate project-boxdim", "--t", "0.8"),
    ("estimate project-boxdim", "--mass-target", "0.9"),
    ("estimate collapse-sweep", "--epsilon", "0.3"),
    ("estimate collapse-sweep", "--depth-cap", "6"),
    ("estimate ssc-approx", "--angle", "0.5"),
    ("estimate ssc-approx", "--method", "chaos"),
    ("estimate cylinders", "--n", "5"),
]


def leaf_parsers(parser, path=()):
    """(command, parser) of each parser that has no subcommands."""
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield " ".join(path), parser
    for action in subcommands:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_CLI = README.split("## CLI", 1)[1].split("\n## ", 1)[0]
README_LIBRARY = README.split("## Library overview", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    """The words of each command line of the README's CLI block."""
    block = README_CLI.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


class TestCliOptions:
    def test_each_command_declares_the_options_its_handler_reads(self):
        found = {
            command: {flag for action in parser._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for command, parser in leaf_parsers(build_parser())
        }
        assert found == COMMAND_OPTIONS
        assert sum(map(len, found.values())) == 50

    @pytest.mark.parametrize("command, option, value", UNTAKEN_OPTIONS, ids=lambda x: x)
    def test_an_untaken_option_exits_two(self, capsys, fixture_dir, command, option, value):
        assert option not in COMMAND_OPTIONS[command]
        argv = command.split()
        if "--input" in COMMAND_OPTIONS[command]:
            argv += ["--input", str(fixture_dir / "c4_rotation.json")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err == f"ifsproj: error: unrecognized arguments: {option} {value}\n"

    @pytest.mark.parametrize(
        "command", [c for c, flags in COMMAND_OPTIONS.items() if "--out" in flags]
    )
    def test_an_empty_out_exits_two(self, capsys, fixture_dir, tmp_path, monkeypatch, command):
        # "--out=" once meant the working directory (fixtures) or no files.
        monkeypatch.chdir(tmp_path)
        argv = command.split()
        if "--input" in COMMAND_OPTIONS[command]:
            argv += ["--input", str(fixture_dir / "c4_rotation.json")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out="])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err == (
            f"ifsproj {command}: error: argument --out: must name a directory, got ''\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
    def test_readme_command_parses(self, argv):
        assert argv[0] == "ifsproj"
        build_parser().parse_args(argv[1:])

    def test_readme_lists_each_command_and_its_options(self):
        rows = [line.split("|")[1:3] for line in README_CLI.splitlines() if line.startswith("| `")]
        listed = {
            name.strip().strip("`"): {flag.strip().strip("`") for flag in flags.split(",")}
            for name, flags in rows
        }
        assert listed == {command: flags - {"--json"} for command, flags in COMMAND_OPTIONS.items()}

    def test_readme_lists_each_exit_code(self):
        table = README_CLI.split("Exit codes:", 1)[1]
        listed = [line.split("|")[1].strip() for line in table.splitlines() if line.startswith("| ")]
        codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert codes == {0, 2, 3, 4, 5, 6}
        assert listed == ["Code", *map(str, sorted(codes))]

    def test_readme_private_names_resolve(self):
        # A private name goes stale with any refactor that renames or
        # inlines it, and no import would notice.
        names = re.findall(r"`(\w+)\.(_\w+(?:\.\w+)*)`", README_LIBRARY)
        assert names
        for module, path in names:
            obj = importlib.import_module(f"ifsproj.{module}")
            for part in path.split("."):
                obj = getattr(obj, part)


HEADER_KEYS = ["tool", "version", "tolerances", "input", "fixture"]
BOX_DIM_KEYS = ["slope", "r_squared", "scales", "counts"]

# Each command (the README's form, with small samples) on one fixture, and
# the ordered top-level keys of its report.  "OUT" stands for a directory.
REPORT_KEYS = [
    (["simdim"], "sierpinski_half",
     [*HEADER_KEYS, "similarity_dim", "residual", "iterations", "method"]),
    (["project-gdifs", "--direction", "1,0"], "c4_rotation",
     [*HEADER_KEYS, "vertices", "edges", "strongly_connected", "source_sim_dim",
      "gdifs_sim_dim", "row_sum_max_error"]),
    (["project-gdifs", "--direction", "1,0", "--out", "OUT"], "c4_rotation",
     [*HEADER_KEYS, "vertices", "edges", "strongly_connected", "source_sim_dim",
      "gdifs_sim_dim", "row_sum_max_error", "gdifs_document"]),
    (["dimdrop", "--l", "1"], "sierpinski_half",
     [*HEADER_KEYS, "subspace_basis", "s_original", "s_reduced", "witness_word_a",
      "witness_word_b", "closure_reason", "closure_size"]),
    (["estimate", "boxdim", "--n", "1000"], "sierpinski_half",
     [*HEADER_KEYS, "seed", "mode", "points", *BOX_DIM_KEYS]),
    (["estimate", "boxdim", "--n", "1000", "--out", "OUT"], "sierpinski_half",
     [*HEADER_KEYS, "seed", "mode", "points", *BOX_DIM_KEYS, "csv", "points_csv", "pgm"]),
    (["estimate", "project-boxdim", "--direction", "1,0", "--n", "1000"],
     "irrational_rotation_planar",
     [*HEADER_KEYS, "seed", "mode", "points", "projected_dim", *BOX_DIM_KEYS]),
    (["estimate", "project-boxdim", "--direction", "1,0", "--n", "1000", "--out", "OUT"],
     "irrational_rotation_planar",
     [*HEADER_KEYS, "seed", "mode", "points", "projected_dim", *BOX_DIM_KEYS, "csv",
      "points_csv"]),
    (["estimate", "collapse-sweep", "--t", "0.8", "--scales", "4..10", "--n", "1000"],
     "irrational_rotation_planar",
     [*HEADER_KEYS, "seed", "mode", "exponent_t", "scales", "covering_sums",
      "monotone_decreasing"]),
    (["estimate", "collapse-sweep", "--t", "0.8", "--n", "1000", "--out", "OUT"],
     "irrational_rotation_planar",
     [*HEADER_KEYS, "seed", "mode", "exponent_t", "scales", "covering_sums",
      "monotone_decreasing", "csv"]),
    (["estimate", "ssc-approx", "--epsilon", "0.3"], "sierpinski_half",
     [*HEADER_KEYS, "seed", "mode", "epsilon", "exponent_t", "word_count",
      "subsystem_sim_dim", "trivial_fallback", "words"]),
    (["estimate", "cylinders", "--angle", "0.5", "--t", "0.8", "--depth-cap", "6"],
     "irrational_rotation_planar",
     [*HEADER_KEYS, "mode", "delta", "exponent_t", "mass", "word_count", "partial",
      "dropped_words", "depth_cap", "closure_reason", "closure_size"]),
    (["fixtures", "--out", "OUT"], None, ["tool", "version", "tolerances", "written"]),
]


def command_name(argv):
    """The command of an argument list: its words before the first option."""
    return " ".join(word for word in argv[:2] if not word.startswith("-"))


class TestReportKeys:
    """The ordered top-level keys of each report, in --json and in text mode."""

    def test_every_command_and_each_out_form_is_pinned(self):
        assert {command_name(argv[1:]) for argv in readme_commands()} == set(COMMAND_OPTIONS)
        pinned = {(command_name(argv), "--out" in argv) for argv, _, _ in REPORT_KEYS}
        assert pinned == {(c, False) for c in COMMAND_OPTIONS if c != "fixtures"} | {
            (c, True) for c, flags in COMMAND_OPTIONS.items() if "--out" in flags
        }

    @pytest.mark.parametrize(
        "argv, fixture, keys", REPORT_KEYS, ids=[" ".join(argv) for argv, _, _ in REPORT_KEYS]
    )
    def test_json_and_text_keys(self, capsys, fixture_dir, tmp_path, argv, fixture, keys):
        argv = [str(tmp_path / "out") if word == "OUT" else word for word in argv]
        if fixture is not None:
            argv += ["--input", str(fixture_dir / f"{fixture}.json")]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert list(out) == keys
        assert main(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert [line.split(":", 1)[0] for line in text if not line.startswith(" ")] == keys


class TestReadmeLibrarySnippet:
    def test_runs_as_written_and_prints_the_commented_values(self, capsys):
        snippet = README_LIBRARY.split("```python", 1)[1].split("```", 1)[0]
        exec(snippet, {})
        printed = capsys.readouterr().out.splitlines()
        prints = [line for line in snippet.splitlines() if line.startswith("print(")]
        assert len(printed) == len(prints)
        for line, out in zip(prints, printed):
            if "#" in line:
                assert out.startswith(line.split("#", 1)[1].strip().rstrip("."))


class TestStartup:
    def test_cli_import_loads_no_package_beyond_numpy(self):
        # In a fresh interpreter that has imported numpy, importing the CLI
        # adds ifsproj, numpy submodules and standard-library modules only.
        src = str(Path(ifsproj.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import numpy; before = set(sys.modules); "
            "import ifsproj.cli; added = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(added - set(sys.stdlib_module_names) - {'numpy'}))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "['ifsproj']"


class TestCliFixtures:
    def test_writes_corpus(self, capsys, tmp_path):
        code, out = run_json(capsys, ["fixtures", "--out", str(tmp_path)])
        assert code == 0
        assert len(out["written"]) == len(BUILDERS)
        for path in out["written"]:
            json.loads(open(path).read())


class TestToleranceProfiles:
    def test_strict_profile_in_header(self, capsys, fixture_dir, monkeypatch):
        monkeypatch.setenv("IFSPROJ_TOLERANCE_PROFILE", "strict")
        code, out = run_json(capsys, ["simdim", "--input", str(fixture_dir / "cantor_third.json")])
        assert code == 0
        assert out["tolerances"]["profile"] == "strict"
        assert out["tolerances"]["tau_dim"] == 1e-12

    @pytest.mark.parametrize("command", [["simdim", "--input"], ["fixtures", "--out"]])
    def test_unknown_profile_exits_two_with_one_line(self, fixture_dir, tmp_path, command):
        # In a fresh interpreter, as a user runs it, so that an uncaught
        # error would show as a traceback.
        target = fixture_dir / "sierpinski_half.json" if "--input" in command else tmp_path / "out"
        src = str(Path(ifsproj.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "ifsproj.cli", *command, str(target)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "IFSPROJ_TOLERANCE_PROFILE": "bogus"},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "ifsproj: error: unknown IFSPROJ_TOLERANCE_PROFILE 'bogus'; "
            "expected one of ['default', 'strict']\n"
        )
        assert "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []
