import json

from pclean import cli
from pclean.cli import main


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv, "--json")
    return status, json.loads(out), err


def test_ring_analyze_z4_json(capsys):
    status, doc, _ = run_json(capsys, "ring", "analyze", "Z4")
    assert status == 0
    assert doc["ring"] == "Z4" and doc["order"] == 4
    assert doc["prime_radical"]["elements"] == ["0", "2"]
    assert doc["cleanness"]["strongly_pclean"]["holds"] is True
    assert doc["cleanness"]["uniquely_pclean"]["holds"] is True


def test_ring_analyze_text_and_json_verdicts_agree(capsys):
    status_t, text, _ = run_cli(capsys, "ring", "analyze", "Z9[w]")
    status_j, doc, _ = run_json(capsys, "ring", "analyze", "Z9[w]")
    assert status_t == status_j == 0
    assert doc["cleanness"]["strongly_pclean"]["holds"] is False
    assert "strongly_pclean={holds=no" in text.replace(" ", "")


def test_matrix_analyze_round_trip(capsys):
    status, doc, _ = run_json(capsys, "matrix", "analyze", "Z4", "[1,2;2,2]")
    assert status == 0
    assert doc["classification"] == "SPLIT"
    assert doc["matrix"] == "[1,2;2,2]"  # literal reparses to the input
    assert doc["certificate"]["valid"] is True
    assert doc["similarity"]["valid"] is True
    assert doc["criteria"] == {
        "idempotent_scan": True,
        "difference_in_radical": True,
        "quadratic_roots": True,
    }


def test_matrix_analyze_triangular_rule(capsys):
    status, doc, _ = run_json(capsys, "matrix", "analyze", "Z4", "[3,1;0,2]")
    assert status == 0
    assert doc["triangular_rule"]["strongly_pclean"] is True
    assert doc["triangular_rule"]["certificate"]["idempotent"] == "[1,1;0,0]"


def test_element_analyze(capsys):
    status, doc, _ = run_json(capsys, "element", "analyze", "Z8[i]", "1+i")
    assert status == 0
    assert doc["strongly_nilpotent"] == {"is": True, "ideal_nilpotency_index": 6}
    assert doc["in_prime_radical"] and doc["in_jacobson_radical"]
    assert doc["strongly_pclean"]["holds"] is True


def test_verify_single_theorem_exit_zero(capsys):
    status, doc, _ = run_json(capsys, "verify", "--theorem", "T4.4")
    assert status == 0
    verdicts = {c["verdict"] for c in doc["checks"]}
    assert "COUNTEREXAMPLE" not in verdicts
    assert any(c["verdict"] == "HOLDS" for c in doc["checks"])
    assert doc["summary"]["COUNTEREXAMPLE"] == 0


def test_verify_catalog_file(capsys, tmp_path):
    cat = tmp_path / "rings.txt"
    cat.write_text("Z4\nZ6  # squarefree\n")
    status, doc, _ = run_json(
        capsys, "verify", "--theorem", "T2.10", "--catalog", str(cat)
    )
    assert status == 0
    assert {c["ring"] for c in doc["checks"]} == {"Z4", "Z6"}


def test_unreadable_catalog_exits_two(capsys, tmp_path):
    # exit 1 means a counterexample, so a catalog that cannot be read is a
    # usage error: a directory, or a file that is not UTF-8
    binary = tmp_path / "rings.bin"
    binary.write_bytes(b"Z4\n\xff\n")
    for path in (tmp_path, binary):
        status, out, err = run_cli(capsys, "verify", "--catalog", str(path))
        assert status == 2 and out == "" and err.startswith("error: ")


def test_catalog_list(capsys):
    status, doc, _ = run_json(capsys, "catalog", "list")
    assert status == 0
    assert {r["spec"] for r in doc["rings"]} >= {"Z4", "Z9[w]", "M2(Z4)", "Tc2(Z4)"}
    assert all("order" in r for r in doc["rings"])


def test_usage_error_exit_two(capsys):
    status, _, err = run_cli(capsys, "ring", "analyze", "Zbad")
    assert status == 2 and "error" in err


def test_unknown_flag_exit_two(capsys):
    assert main(["ring", "analyze", "Z4", "--bogus"]) == 2


def test_unknown_theorem_exit_two(capsys):
    status, _, err = run_cli(capsys, "verify", "--theorem", "T0.0")
    assert status == 2 and "T0.0" in err


def test_limit_flag_enforced(capsys):
    status, _, err = run_cli(capsys, "ring", "analyze", "M2(Z8)", "--limit", "100")
    assert status == 2 and "limit" in err


def test_limit_env_default(capsys, monkeypatch):
    monkeypatch.setenv("PCLEAN_LIMIT", "100")
    status, _, err = run_cli(capsys, "ring", "analyze", "M2(Z8)")
    assert status == 2
    monkeypatch.setenv("PCLEAN_LIMIT", "5000")
    status, doc, _ = run_json(capsys, "ring", "analyze", "M2(Z8)")
    assert status == 0 and doc["order"] == 4096


def test_malformed_limit_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PCLEAN_LIMIT", "abc")
    status, out, err = run_cli(capsys, "ring", "analyze", "Z4")
    assert status == 2 and out == ""
    assert err == "error: PCLEAN_LIMIT='abc' is not an integer\n"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    cli._make_parser.cache_clear()
    monkeypatch.setenv("PCLEAN_LIMIT", "100")
    assert run_cli(capsys, "ring", "analyze", "M2(Z8)")[0] == 2
    monkeypatch.setenv("PCLEAN_LIMIT", "5000")
    assert run_cli(capsys, "ring", "analyze", "M2(Z8)")[0] == 0
    info = cli._make_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_parse_error_cites_offset(capsys):
    status, _, err = run_cli(capsys, "element", "analyze", "Z8[i]", "1+q")
    assert status == 2 and "offset" in err


def test_element_analyze_above_the_unit_scan_limit(capsys):
    # T2(Z32) has 32768 elements: the unit mask is not enumerated, so the two
    # fields that need it are skipped and the rest is reported
    status, doc, err = run_json(
        capsys, "element", "analyze", "T2(Z32)", "[1,2;0,3]", "--limit", "540000"
    )
    assert status == 0 and err == ""
    assert doc["strongly_clean"] == {"skipped": "order"}
    assert doc["unique_counts"]["clean_idempotents"] == {"skipped": "order"}
    assert doc["unit"] is True
    assert doc["strongly_pclean"]["holds"] is True
    assert doc["strongly_pclean"]["certificate"]["valid"] is True


def test_matrix_analyze_limit_caps_the_matrix_ring(capsys):
    # Z9[w] (order 81) fits --limit 100, but M2(Z9[w]) has order 81^4
    status, out, err = run_cli(
        capsys, "matrix", "analyze", "Z9[w]", "[1,0;0,2]", "--limit", "100", "--json"
    )
    assert status == 2 and out == ""
    assert err == "error: M2(Z9[w]) exceeds the materialization limit 100\n"
    status, doc, _ = run_json(capsys, "matrix", "analyze", "Z4[i]", "[1,i;2,1+i]")
    assert status == 0 and doc["matrix"] == "[1,i;2,1+i]"  # M2 order 65536 = default limit
