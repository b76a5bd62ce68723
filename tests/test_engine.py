"""Scenario engine tests: parsing, assertions, bundled scenarios, golden report."""

import json
import pathlib
from importlib import resources

import pytest

from ledgerstack import engine

GOLDEN = pathlib.Path(__file__).parent / "golden"


def bundled(name):
    return (resources.files("ledgerstack") / "scenarios" / name).read_text()


def lines(*docs):
    return "\n".join(json.dumps(d) for d in docs)


class TestParsing:
    def test_bad_json_reports_the_line(self):
        text = '{"op": "keygen", "name": "a", "seed": "%s"}\n{nope}' % ("01" * 32)
        with pytest.raises(engine.ParseError) as e:
            engine.run_scenario(text)
        assert e.value.line == 2

    def test_unknown_op(self):
        with pytest.raises(engine.ParseError, match="unknown op"):
            engine.run_scenario('{"op": "launch_missiles"}')

    def test_missing_op(self):
        with pytest.raises(engine.ParseError, match="object with an op"):
            engine.run_scenario('{"noop": true}')
        with pytest.raises(engine.ParseError, match="object with an op"):
            engine.run_scenario("[1, 2, 3]")

    def test_unknown_expect_error_class(self):
        with pytest.raises(engine.ParseError, match="unknown error class"):
            engine.run_scenario(
                '{"op": "keygen", "name": "a", "seed": "01", "expect_error": "Meltdown"}'
            )

    def test_comments_and_blanks_keep_line_numbers(self):
        text = "# header\n\n# more\n{bad json}"
        with pytest.raises(engine.ParseError) as e:
            engine.run_scenario(text)
        assert e.value.line == 4

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_names_its_line(self, constant):
        # canonical JSON has no form for them, so they are refused on input
        text = '{"op": "tsa_init"}\n' + '{"op": "deploy", "code_id": "counter", "init": {"x": %s}}' % constant
        with pytest.raises(engine.ParseError, match=f"bad json: {constant}") as e:
            engine.run_scenario(text)
        assert e.value.line == 2

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_line_separators_inside_strings_keep_line_numbers(self, sep):
        # before: str.splitlines broke the JSON line at the raw separator
        text = '{"op": "keygen", "name": "a%sb", "seed": "%s"}\n{nope}' % (sep, "01" * 32)
        with pytest.raises(engine.ParseError, match="line 2: bad json") as e:
            engine.run_scenario(text)
        assert e.value.line == 2
        report = engine.run_scenario(text.split("\n")[0])
        assert report["ops"][0]["result"]["name"] == f"a{sep}b"

    def test_crlf_scenario_runs(self):
        text = '{"op": "tsa_init"}\r\n\r\n{"op": "open", "id": "m", "kind": "main"}\r\n'
        report = engine.run_scenario(text)
        assert [op["line"] for op in report["ops"]] == [1, 3]

    def test_empty_scenario_is_a_valid_report(self):
        report = engine.run_scenario("# nothing but comments\n", "empty")
        assert report == {"scenario": "empty", "ops": [], "summary": {"op_count": 0}}


class TestFields:
    KEYGEN = {"op": "keygen", "name": "a", "seed": "01" * 32}

    @pytest.mark.parametrize("amount", [-5, 1.5, True, "5"])
    def test_fund_takes_positive_integers_only(self, amount):
        text = lines(
            self.KEYGEN,
            {"op": "fund", "name": "a", "amount": 10},
            {"op": "fund", "name": "a", "amount": amount},
        )
        with pytest.raises(engine.ParseError, match="amount") as e:
            engine.run_scenario(text)
        assert e.value.line == 3

    @pytest.mark.parametrize("amount", [-5, 1.5, True, "5"])
    def test_rejected_fund_leaves_the_balance(self, amount):
        state = engine.ScenarioState()
        engine._op_keygen(state, self.KEYGEN)
        engine._op_fund(state, {"name": "a", "amount": 10})
        with pytest.raises(engine.ParseError):
            engine._op_fund(state, engine._OpLine({"name": "a", "amount": amount}, 7))
        assert state.balances == {state.keys["a"].public: 10}

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"op": "fund"}, "name"),
            ({"op": "fund", "name": "a"}, "amount"),
            ({"op": "keygen", "name": "b"}, "seed"),
            ({"op": "tsa_init", "expected": {}}, None),
        ],
    )
    def test_missing_field_is_a_parse_error(self, doc, field):
        text = lines(self.KEYGEN, doc)
        if field is None:
            engine.run_scenario(text)
            return
        with pytest.raises(engine.ParseError, match=f"missing field '{field}'") as e:
            engine.run_scenario(text)
        assert e.value.line == 2


    @pytest.mark.parametrize(
        "doc",
        [
            {"op": "keygen", "name": "b", "seed": "zz"},
            {"op": "keygen", "name": "b", "seed": 5},
            {"op": "tsa_init", "operator_seed": "zz"},
            {"op": "tsa_init", "operator_seed": 5},
            {"op": "tsa_init", "operator_seed": ["00"]},
            {"op": "keygen", "name": "b", "seed": "01"},
            {"op": "tsa_init", "operator_seed": "01"},
        ],
    )
    def test_seed_that_is_not_hex_text_names_its_line(self, doc):
        # before: ValueError or TypeError from bytes.fromhex, without a line
        with pytest.raises(engine.ParseError, match="line 2: .*seed") as e:
            engine.run_scenario(lines(self.KEYGEN, doc))
        assert e.value.line == 2

    @pytest.mark.parametrize("field", ["exposure", "pd_12m", "pd_lifetime", "lgd"])
    @pytest.mark.parametrize("value", ["x", None, [0.5], True])
    def test_ecl_field_that_is_not_a_number_names_its_line(self, field, value):
        # before: TypeError from a comparison, without a line
        doc = {"op": "ecl", "exposure": 1000, "pd_12m": 0.1, "pd_lifetime": 0.2, "lgd": 0.5, "stage": 1}
        doc[field] = value
        with pytest.raises(engine.ParseError, match=f"line 2: .*{field}") as e:
            engine.run_scenario(lines(self.KEYGEN, doc))
        assert e.value.line == 2

    @pytest.mark.parametrize("stage", ["x", 4, 1.0, True, None])
    def test_ecl_stage_other_than_1_2_3_names_its_line(self, stage):
        # before: "x" raised the undeclared base BankLedgerError; 1.0 and True passed as stage 1
        doc = {"op": "ecl", "exposure": 1000, "pd_12m": 0.1, "pd_lifetime": 0.2, "lgd": 0.5, "stage": stage}
        with pytest.raises(engine.ParseError, match="line 2: .*stage") as e:
            engine.run_scenario(lines(self.KEYGEN, doc))
        assert e.value.line == 2

    @pytest.mark.parametrize("field", ["cost", "salvage", "life_periods", "periods_elapsed"])
    @pytest.mark.parametrize("value", ["x", 1.5, None, True])
    def test_depreciate_field_that_is_not_an_int_names_its_line(self, field, value):
        # before: "x" raised a bare TypeError from a comparison
        doc = {"op": "depreciate", "cost": 100, "salvage": 0, "life_periods": 4, "periods_elapsed": 0}
        doc[field] = value
        with pytest.raises(engine.ParseError, match=f"line 2: .*{field}") as e:
            engine.run_scenario(lines(self.KEYGEN, doc))
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"op": "tsa_init", "agency": ["a"]}, "agency"),
            ({"op": "keygen", "name": ["a"], "seed": "02" * 32}, "name"),
            ({"op": "buffer_check", "requirement": {}}, "requirement"),
            ({"op": "deploy", "code_id": "counter", "budget": "x"}, "budget"),
            ({"op": "deploy", "code_id": "counter", "height": -1}, "height"),
            ({"op": "deploy", "code_id": "counter", "init": [1]}, "init"),
            ({"op": "invoke", "target": 5, "method": "get"}, "target"),
            ({"op": "escrow_sign", "escrow": "e", "signer": "a", "disposition": {}}, "disposition"),
            ({"op": "open", "id": "m", "kind": "main", "cap": "5"}, "cap"),
            ({"op": "receipt", "id": "m", "amount": 5, "memo": 7}, "memo"),
            ({"op": "classify", "sppi_pass": "yes", "business_model": "hold_to_collect"}, "sppi_pass"),
            ({"op": "tsa_init", "expected": [1]}, "expected"),
        ],
    )
    def test_a_field_holds_one_type_in_every_op(self, doc, field):
        # before: a bare TypeError or AttributeError from deep in the op, without a line
        with pytest.raises(engine.ParseError, match=f"line 2: {field} must be") as e:
            engine.run_scenario(lines(self.KEYGEN, doc))
        assert e.value.line == 2

    def test_ecl_number_that_overflows_to_infinity_names_its_line(self):
        # 1e400 is valid JSON that reads as inf; before: decimal.InvalidOperation
        text = '{"op": "ecl", "exposure": 1e400, "pd_12m": 0.1, "pd_lifetime": 0.2, "lgd": 0.5, "stage": 1}'
        with pytest.raises(engine.ParseError, match="line 1: exposure must be a finite number"):
            engine.run_scenario(text)

    def test_expect_error_that_is_not_text_names_its_line(self):
        # before: TypeError, unhashable list
        with pytest.raises(engine.ParseError, match="line 2: unknown error class") as e:
            engine.run_scenario(lines(self.KEYGEN, {"op": "tsa_init", "expect_error": ["TsaError"]}))
        assert e.value.line == 2


class TestRunErrors:
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"op": "fund", "name": "ghost", "amount": 5}, "no key named 'ghost'"),
            ({"op": "open", "agency": "north", "id": "m", "kind": "main"}, "no treasury ledger for agency 'north'"),
            ({"op": "escrow_sign", "escrow": "e", "signer": "a", "disposition": "release"}, "no escrow 'e'"),
            ({"op": "anchor_day"}, "no treasury ledgers to anchor"),
        ],
    )
    def test_run_state_error_carries_its_line(self, doc, message):
        # before: an EngineError with no line
        with pytest.raises(engine.EngineError, match=f"^line 2: {message}") as e:
            engine.run_scenario(lines({"op": "keygen", "name": "a", "seed": "01" * 32}, doc))
        assert e.value.line == 2

    def test_a_date_posts_once(self):
        # before: the second post_books posted the day total again, giving
        # receivables_control 10 and sales -10
        sale = {"op": "prime_entry", "book": "sales_day", "date": "2026-03-02", "counterparty": "acme", "amount": 5}
        text = lines(sale, {"op": "post_books"}, {"op": "post_books"}, {"op": "trial_balance"})
        results = [row["result"] for row in engine.run_scenario(text)["ops"][1:]]
        assert results == [
            {"entries": 1},
            {"entries": 0},
            {"total": 0, "balances": {"receivables_control": 5, "sales": -5}},
        ]
        repost = {"op": "post_books", "date": "2026-03-02", "expect_error": "BankLedgerError"}
        assert engine.run_scenario(lines(sale, {"op": "post_books"}, repost))["summary"]["op_count"] == 3

    @pytest.mark.parametrize(
        "doc,error",
        [
            ({"op": "open", "id": "x", "kind": "nope"}, "TsaError"),
            ({"op": "classify", "sppi_pass": True, "business_model": "nope"}, "BankLedgerError"),
            ({"op": "depreciate", "cost": 5, "salvage": 9, "life_periods": 2}, "BankLedgerError"),
        ],
    )
    def test_base_class_refusal_is_declarable_and_carries_its_line(self, doc, error):
        # before: the base class escaped raw and could not be declared
        text = lines({"op": "tsa_init"}, doc)
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.line == 2 and e.value.actual["error"] == error
        report = engine.run_scenario(lines({"op": "tsa_init"}, {**doc, "expect_error": error}))
        assert report["ops"][-1]["result"] == {"error": error}

    def test_escrow_base_refusal_carries_its_line(self):
        keys = [{"op": "keygen", "name": n, "seed": f"0{i}" * 32} for i, n in enumerate("bsa", 1)]
        fund = {"op": "fund", "name": "b", "amount": 100}
        opened = {"op": "open_escrow", "buyer": "b", "seller": "s", "arbiter": "a", "amount": 10, "fee": 1, "as": "e"}
        sign = {"op": "escrow_sign", "escrow": "e", "signer": "b", "disposition": "keep"}
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(lines(*keys, fund, opened, sign))
        assert e.value.line == 6 and e.value.actual["error"] == "EscrowError"

    def test_contract_refusals_carry_their_line(self):
        deploy = {"op": "deploy", "code_id": "counter", "height": 2**64}
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(lines({"op": "tsa_init"}, deploy))
        # before: struct.error from packing the height
        assert e.value.line == 2 and e.value.actual["error"] == "InvalidParams"

    def test_repeated_same_day_transaction_is_refused_with_its_line(self):
        # before: both receipts recorded, then the day close refused the block as duplicate_tx
        receipt = {"op": "receipt", "id": "m", "amount": 5}
        text = lines({"op": "tsa_init"}, {"op": "open", "id": "m", "kind": "main"}, receipt, receipt)
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.line == 4 and e.value.actual["error"] == "TsaError"


class TestAssertions:
    def test_expected_subset_passes(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main", "expected": {"id": "m"}},
        )
        report = engine.run_scenario(text)
        assert report["summary"]["op_count"] == 2

    def test_expected_mismatch_carries_both_sides(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main"},
            {"op": "receipt", "id": "m", "amount": 70, "expected": {"balance": 71}},
        )
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.line == 3
        assert e.value.expected == {"balance": 71}
        assert e.value.actual["balance"] == 70

    @pytest.mark.parametrize(
        "doc,expected",
        [
            ({"op": "chain_verify"}, {"valid": 1}),
            ({"op": "day_close"}, {"day": False}),
            ({"op": "receipt", "id": "m", "amount": 5}, {"balance": 5.0}),
            ({"op": "anchor_day"}, {"anchored": True}),
        ],
        ids=["valid-1", "day-false", "balance-5.0", "anchored-true"],
    )
    def test_expected_value_of_another_json_type_fails(self, doc, expected):
        # before: != let 1 stand for true, false for 0 and 5.0 for 5
        text = lines({"op": "tsa_init"}, {"op": "open", "id": "m", "kind": "main"}, {**doc, "expected": expected})
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.line == 3

    def test_expected_missing_key_fails(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main", "expected": {"towers": 2}},
        )
        with pytest.raises(engine.AssertionFailed):
            engine.run_scenario(text)

    def test_expect_error_matches(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main"},
            {"op": "disburse", "id": "m", "amount": 5, "expect_error": "Overdraft"},
        )
        report = engine.run_scenario(text)
        assert report["ops"][-1]["result"] == {"error": "Overdraft"}

    def test_expect_error_but_success_fails(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main", "expect_error": "DuplicateId"},
        )
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.expected == {"expect_error": "DuplicateId"}

    def test_wrong_error_class_fails_with_detail(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main"},
            {"op": "disburse", "id": "m", "amount": 5, "expect_error": "UnknownAccount"},
        )
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.actual["error"] == "Overdraft"

    def test_unexpected_domain_error_fails_even_without_expectation(self):
        text = lines(
            {"op": "tsa_init"},
            {"op": "open", "id": "m", "kind": "main"},
            {"op": "disburse", "id": "m", "amount": 5},
        )
        with pytest.raises(engine.AssertionFailed) as e:
            engine.run_scenario(text)
        assert e.value.expected == {"ok": True}

    def test_declarable_error_names(self):
        # adding or renaming a domain error class changes the scenario
        # vocabulary; that has to be a deliberate edit of this list
        assert sorted(engine._EXPECTED_ERRORS) == [
            "AlreadyFinal",
            "AlreadyOpen",
            "BadSignature",
            "BankLedgerError",
            "CapMissing",
            "ConflictingSignature",
            "ContractError",
            "ContractsError",
            "Dead",
            "DuplicateId",
            "DuplicateKey",
            "EscrowError",
            "FeeTooLarge",
            "FullyDepreciated",
            "InsufficientFunds",
            "InvalidParams",
            "InvalidProbability",
            "NonPositiveAmount",
            "NotParty",
            "OutOfSteps",
            "Overdraft",
            "SecondMain",
            "TsaError",
            "UnbalancedEntry",
            "UnknownAccount",
            "UnknownAddress",
            "UnknownBook",
            "UnknownCode",
        ]


class TestBundledScenarios:
    @pytest.mark.parametrize(
        "name,op_count",
        [
            ("tsa_day_cycle.jsonl", 26),
            ("tsa_distributed_day.jsonl", 24),
            ("escrow_paths.jsonl", 17),
            ("bank_books.jsonl", 34),
            ("contracts_tour.jsonl", 10),
        ],
    )
    def test_runs_clean(self, name, op_count):
        report = engine.run_scenario(bundled(name), name)
        assert report["summary"]["op_count"] == op_count

    def test_distributed_day_anchors_verify(self):
        report = engine.run_scenario(bundled("tsa_distributed_day.jsonl"))
        by_op = {}
        for row in report["ops"]:
            by_op.setdefault(row["op"], []).append(row["result"])
        assert by_op["stamp_verify"][-1] == {"valid": True, "periods": 2}
        assert all(r["match"] for r in by_op["replay_check"])

    def test_stamp_verify_reports_the_first_bad_period_and_why(self):
        state = engine.ScenarioState()
        for line in bundled("tsa_distributed_day.jsonl").split("\n"):
            if line.startswith("{"):
                doc = json.loads(line)
                engine.HANDLERS[doc["op"]](state, doc)
        stamp, items = state.stamps[0]
        state.stamps[0] = (stamp, items[::-1])
        result = engine.HANDLERS["stamp_verify"](state, {"op": "stamp_verify"})
        assert result == {"valid": False, "periods": 2, "first_bad_period": 0, "reason": "merkle_mismatch"}

    def test_escrow_paths_conserve_cash(self):
        report = engine.run_scenario(bundled("escrow_paths.jsonl"))
        final = [r for r in report["ops"] if r["op"] == "balances"][-1]["result"]
        total = sum(final["parties"].values()) + sum(final["escrows"].values())
        assert total == 2000


class TestReportBytes:
    def test_reruns_are_byte_identical(self):
        text = bundled("tsa_day_cycle.jsonl")
        a = engine.report_bytes(engine.run_scenario(text, "tsa_day_cycle"))
        b = engine.report_bytes(engine.run_scenario(text, "tsa_day_cycle"))
        assert a == b

    def test_golden_day_cycle_report(self):
        # frozen from a hand-audited run; any behavior drift shows up here
        text = bundled("tsa_day_cycle.jsonl")
        raw = engine.report_bytes(engine.run_scenario(text, "tsa_day_cycle"))
        assert raw == (GOLDEN / "tsa_day_cycle.report.json").read_bytes()

    def test_golden_escrow_report(self):
        # the three escrow paths (released, refunded, arbitrated) run from
        # this scenario only
        raw = engine.report_bytes(engine.run_scenario(bundled("escrow_paths.jsonl"), "escrow_paths"))
        assert raw == (GOLDEN / "escrow_paths.report.json").read_bytes()

    @pytest.mark.parametrize("name", ["bank_books", "contracts_tour"])
    def test_golden_bank_and_contract_reports(self, name):
        # the bank books and the two contracts run from these scenarios only
        raw = engine.report_bytes(engine.run_scenario(bundled(f"{name}.jsonl"), name))
        assert raw == (GOLDEN / f"{name}.report.json").read_bytes()

    def test_report_ends_with_newline(self):
        raw = engine.report_bytes(engine.run_scenario("", "x"))
        assert raw.endswith(b"}\n")
