import json
import math

import numpy as np
import pytest

from ifsproj.cli import main
from ifsproj.dimension import Edge, GDIFS, sim_dim_gdifs
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
from ifsproj.fixtures import BUILDERS, fixture_document, fixture_ifs, fixture_path, write_all
from ifsproj.geometry import DegenerateSystemError, Similarity

LOG3_LOG2 = math.log(3.0) / math.log(2.0)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    write_all(directory)
    return directory


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out.strip() else None)


class TestDocuments:
    def test_ifs_round_trip(self, sierpinski):
        doc = ifs_to_document(sierpinski)
        again = ifs_from_document(doc)
        for a, b in zip(sierpinski, again):
            assert abs(a.ratio - b.ratio) < 1e-15
            assert np.allclose(a.rotation, b.rotation, atol=1e-15)
            assert np.allclose(a.translation, b.translation, atol=1e-15)

    def test_gdifs_round_trip(self, sierpinski):
        g = GDIFS(1, [Edge(0, 0, s) for s in sierpinski])
        assert gdifs_equal(g, gdifs_from_document(gdifs_to_document(g)))

    @pytest.mark.parametrize("drop", ["from", "ratio", "rotation"])
    def test_gdifs_edge_missing_a_key_is_a_schema_error(self, sierpinski, drop):
        doc = gdifs_to_document(GDIFS(1, [Edge(0, 0, s) for s in sierpinski]))
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
        assert (tmp_path / "collapse_sweep.csv").exists()

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
