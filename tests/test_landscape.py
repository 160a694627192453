import pytest
import yaml
from hypothesis import assume, given, settings, strategies as hst

from ffsipp import landscape, worstcase
from ffsipp.landscape import (
    AND_BLOCK,
    DONE,
    PENDING,
    REPEAT_LOOP,
    RUNNING,
    SEQUENCE,
    SKIPPED,
    STEP,
    XOR_BLOCK,
    OptimizerConfig,
    ScenarioError,
    advance_loops,
    apply_xor_choice,
    average_makespan,
    critical_path_overhead_ms,
    enumerate_paths,
    next_steps,
    parse_scenario,
    parse_structure,
    pending_xor_choices,
)

from .conftest import frontier, instance, preset_text, service, structures


class TestParseStructure:
    def test_sequence(self):
        root = parse_structure("s,s,s")
        assert root.kind == SEQUENCE
        assert [c.kind for c in root.children] == [STEP] * 3

    def test_blocks_and_loop(self):
        root = parse_structure("s,AND(s|s),LOOP*3(s)")
        kinds = [c.kind for c in root.children]
        assert kinds == [STEP, AND_BLOCK, REPEAT_LOOP]
        assert root.children[2].repetitions == 3

    def test_step_counts_match_preset_models(self):
        counts = {
            "s,s,s": 3,
            "XOR(s|s)": 2,
            "s,AND(s|s)": 3,
            "s,AND(s|s),s,AND(s,s|s),s": 8,
            "s,XOR(s|s)": 3,
            "s,AND(s,s|s),s,XOR(s,s|s),s": 9,
            "s,s,s,s,s,s,s,s": 8,
            "AND(s|s),s": 3,
            "s,AND(s|s),LOOP*3(s)": 4,
        }
        for text, n in counts.items():
            model = landscape.ProcessModel(id=1, root=parse_structure(text))
            assert len(model.step_nodes) == n, text

    def test_garbage_rejected(self):
        with pytest.raises(ScenarioError):
            parse_structure("s,AND(s|")

    @settings(max_examples=200)
    @given(structures(), hst.data())
    def test_block_or_loop_in_place_of_an_inner_step_rejected(self, structure, data):
        # Swap one step of a branch or loop body for a block or loop.
        depth, inner = 0, []
        for pos, char in enumerate(structure):
            depth += {"(": 1, ")": -1}.get(char, 0)
            if char == "s" and depth:
                inner.append(pos)
        assume(inner)
        pos = data.draw(hst.sampled_from(inner))
        nested, what = data.draw(
            hst.sampled_from([("AND(s|s)", "block"), ("XOR(s|s)", "block"), ("LOOP*2(s)", "loop")])
        )
        with pytest.raises(
            ScenarioError, match=rf"^a {what} inside a block or loop is not supported$"
        ):
            parse_structure(structure[:pos] + nested + structure[pos + 1:])


class TestWorkflowSemantics:
    def test_sequence_progression(self, abc_services):
        inst = instance("s,s,s", abc_services, ["A", "B", "C"])
        assert next_steps(inst) == {0}
        inst.steps[0].status = DONE
        assert next_steps(inst) == {1}

    def test_and_split_exposes_both_heads(self, abc_services):
        inst = instance("s,AND(s|s)", abc_services, ["A", "B", "C"])
        inst.steps[0].status = DONE
        assert next_steps(inst) == {1, 2}

    def test_xor_waits_for_choice(self, abc_services):
        inst = instance("XOR(s|s)", abc_services, ["A", "B"])
        assert next_steps(inst) == set()
        assert pending_xor_choices(inst) == [1]
        apply_xor_choice(inst, 1, 1)
        assert next_steps(inst) == {1}
        assert inst.steps[0].status == SKIPPED

    def test_pending_xor_choices_in_sequence_order(self, abc_services):
        inst = instance("XOR(s|s),XOR(s|s)", abc_services)
        assert pending_xor_choices(inst) == [1]
        apply_xor_choice(inst, 1, 0)
        assert pending_xor_choices(inst) == []
        assert next_steps(inst) == {0}
        inst.steps[0].status = DONE
        assert pending_xor_choices(inst) == [4]
        assert next_steps(inst) == set()

    def test_loop_restarts_body(self, abc_services):
        inst = instance("LOOP*3(s)", abc_services, ["A"])
        inst.steps[0].status = DONE
        restarted = advance_loops(inst)
        assert restarted and restarted[0][1] == [0]
        assert inst.steps[0].status != DONE
        assert inst.loop_iters_done[restarted[0][0]] == 1

    def test_only_the_finished_loop_restarts(self, abc_services):
        inst = instance("LOOP*2(s,s),LOOP*2(s)", abc_services, ["A", "B", "C"])
        first, second = (node_id for node_id, _, _ in inst.model.paths.loops)
        inst.steps[0].status = DONE
        assert advance_loops(inst) == []
        inst.steps[1].status = DONE
        assert advance_loops(inst) == [(first, [0, 1])]
        assert inst.loop_iters_done == {first: 1, second: 0}
        assert [s.status for s in inst.steps] == [PENDING, PENDING, PENDING]

    def test_loop_respects_sampled_iterations(self, abc_services):
        inst = instance("LOOP*3(s)", abc_services, ["A"])
        loop_id = enumerate_paths(inst.model).loops[0][0]
        inst.loop_planned[loop_id] = 1
        inst.steps[0].status = DONE
        assert advance_loops(inst) == []
        assert inst.done


@hst.composite
def _progressed(draw, services):
    """An accepted shape with random step statuses and some XOR branches chosen."""
    inst = instance(draw(structures()), services)
    for step in inst.steps:
        step.status = draw(hst.sampled_from((PENDING, RUNNING, DONE, DONE, SKIPPED)))
    for node_id, kind, branches, _ in inst.model.paths.items:
        if kind == XOR_BLOCK and draw(hst.booleans()):
            apply_xor_choice(inst, node_id, draw(hst.integers(0, len(branches) - 1)))
    return inst


class TestFrontier:
    SERVICES = {"A": service("A"), "B": service("B")}

    @settings(max_examples=300)
    @given(_progressed(SERVICES))
    def test_matches_reference(self, inst):
        assert (next_steps(inst), pending_xor_choices(inst)) == frontier(inst)


class TestDerivedQuantities:
    def test_path_decomposition(self, abc_services):
        inst = instance("s,AND(s|s)", abc_services, ["A", "A", "C"])
        dec = enumerate_paths(inst.model)
        assert dec.items == [(1, STEP, [[0]], 1), (2, AND_BLOCK, [[1], [2]], 1)]
        assert dec.blocks[0][1] == [[1], [2]]
        # AND and XOR blocks share one list, in sequence order.
        mixed = instance("XOR(s|s),AND(s|s)", abc_services, ["A", "B", "A", "C"]).model
        blocks = enumerate_paths(mixed).blocks
        assert [mixed.nodes[node_id].kind for node_id, _ in blocks] == [XOR_BLOCK, AND_BLOCK]
        assert blocks == [(1, [[0], [1]]), (4, [[2], [3]])]

    def test_average_makespan_composition(self, abc_services):
        seq = instance("s,s,s", abc_services, ["A", "B", "C"]).model
        assert average_makespan(seq, abc_services) == 240.0
        par = instance("AND(s|s)", abc_services, ["A", "C"]).model
        assert average_makespan(par, abc_services) == 120.0
        loop = instance("LOOP*3(s)", abc_services, ["A"]).model
        assert average_makespan(loop, abc_services) == 120.0

    def test_critical_path_overhead_composition(self, abc_services):
        # Each A/B/C step pulls for 30 s and starts its container in 2 s.
        seq = instance("s,s,s", abc_services, ["A", "B", "C"]).model
        assert critical_path_overhead_ms(seq, abc_services, 60_000) == 60_000 + 3 * 32_000
        # The AND's longer branch (two steps, 160 s) sets the overheads.
        par = instance("AND(s|s,s)", abc_services, ["C", "B", "B"]).model
        assert critical_path_overhead_ms(par, abc_services, 60_000) == 60_000 + 2 * 32_000
        loop = instance("LOOP*3(s)", abc_services, ["A"]).model
        assert critical_path_overhead_ms(loop, abc_services, 0) == 3 * 32_000

    def test_step_deadline_last_step(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=1_000_000)
        rs = worstcase.remaining_structure(inst, abc_services, 60_000)
        assert rs.step_deadline_ms[0] == 868_000

    def test_step_deadline_can_be_past(self, abc_services):
        inst = instance("s,s,s", abc_services, ["C", "C", "C"], deadline_ms=100_000)
        rs = worstcase.remaining_structure(inst, abc_services, 60_000)
        assert rs.step_deadline_ms[0] < 0


class TestParseScenario:
    def test_presets_parse(self):
        for name in (
            "constant_strict_intense",
            "pyramid_lenient_light",
            "smoke",
        ):
            sc = parse_scenario(preset_text(name))
            assert sc.models and sc.services and sc.vm_types

    def test_missing_models_rejected(self):
        text = preset_text("smoke").replace("models:", "not_models:")
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "section, error",
        [("services", "no services"), ("vm_types", "no vm types"), ("models", "no process models")],
    )
    def test_empty_section_rejected(self, section, error):
        raw = yaml.safe_load(preset_text("smoke"))
        raw[section] = []
        with pytest.raises(ScenarioError, match=rf"^{error}$"):
            parse_scenario(yaml.safe_dump(raw))

    def test_config_holds_the_yaml_values(self):
        config = OptimizerConfig.from_scenario(parse_scenario(preset_text("smoke")))
        assert (config.gap_tol, config.time_limit_ms, config.fresh_candidates) == (0.0, None, 2)
        assert config.epsilon_ms == 30000

    @pytest.mark.parametrize(
        "section, key",
        [
            ("services", "name"),
            ("services", "duration_s"),
            ("vm_types", "name"),
            ("vm_types", "cores"),
            ("vm_types", "cost_per_btu"),
            ("models", "id"),
            ("models", "structure"),
        ],
    )
    def test_entry_without_required_key_rejected(self, section, key):
        raw = yaml.safe_load(preset_text("smoke"))
        del raw[section][1][key]
        with pytest.raises(ScenarioError, match=rf"^{section}\[1\]: missing key '{key}'$"):
            parse_scenario(yaml.safe_dump(raw))

    @pytest.mark.parametrize("section", ["services", "vm_types", "models"])
    @pytest.mark.parametrize(
        "value, error",
        [([1], r"\[0\]: expected a mapping"), (5, ": expected a list")],
        ids=["entry", "section"],
    )
    def test_entry_not_a_mapping_rejected(self, section, value, error):
        raw = yaml.safe_load(preset_text("smoke"))
        raw[section] = value
        with pytest.raises(ScenarioError, match=rf"^{section}{error}"):
            parse_scenario(yaml.safe_dump(raw))

    @pytest.mark.parametrize(
        "path, value, error",
        [
            (("services", 0, "cpu"), None, r"^services\[0\]\.cpu must be a number, got None$"),
            (("arrival",), 5, r"^arrival: expected a mapping, got 5$"),
            (("sla", "factor"), [1], r"^sla\.factor must be a number, got \[1\]$"),
            (("weights",), [1], r"^weights: expected a mapping, got \[1\]$"),
            (("models", 0, "steps"), 3, r"^models\[0\]\.steps must be a list, got 3$"),
            (("arrival", "batch_models"), 1, r"^arrival\.batch_models must be a list of lists"),
            (("btu_seconds",), "x", r"^btu_seconds must be a number, got 'x'$"),
            (("models", 0, "structure"), "LOOP*(s)",
             r"^models\[0\]\.structure: bad workflow structure near '\*\(s\)'$"),
            (("solver", "fresh_candidates"), 2.7,
             r"^solver\.fresh_candidates must be a whole number, got 2\.7$"),
            (("services", 0, "cpu"), "45", r"^services\[0\]\.cpu must be a number, got '45'$"),
            (("vm_types", 0, "pool_limit"), True,
             r"^vm_types\[0\]\.pool_limit must be a number, got True$"),
            (("weights", "z"), float("nan"), r"^weights\.z must be a finite number, got nan$"),
            (("solver", "time_limit_ms"), 5000, r"^solver: unknown key 'time_limit_ms'$"),
            (("solver", "btu_max"), 1000, r"^solver: unknown key 'btu_max'$"),
            (("solver", "gap"), 0.001, r"^solver: unknown key 'gap'$"),
            (("vm_types", 1, "ram"), -5, r"^vm_types\[1\]\.ram must be >= 0, got -5$"),
            (("vm_types", 0, "startup_s"), -1, r"^vm_types\[0\]\.startup_s must be >= 0, got -1$"),
            (("arrival", "interval_s"), -60, r"^arrival\.interval_s must be >= 0, got -60$"),
            (("sla", "factr"), 2.5, r"^sla: unknown key 'factr'$"),
            (("vm_types", 0, "core"), 2, r"^vm_types\[0\]: unknown key 'core'$"),
            (("btu_second",), 300, r"^scenario: unknown key 'btu_second'$"),
            (("solver", "mn"), 1000000, r"^solver: unknown key 'mn'$"),
            (("arrival", "total_requests"), -3, r"^arrival\.total_requests must be >= 1, got -3$"),
            (("sla", "planning_rate_per_s"), -1,
             r"^sla\.planning_rate_per_s must be >= 0, got -1$"),
            (("services", 0, "ram"), 2000,
             r"^services\[0\]\.ram must be <= 1024, got 2000$"),
            (("services", 0, "cpu"), 250,
             r"^services\[0\]\.cpu must be <= 200, got 250$"),
            (("services", 0, "cpu"), -45, r"^services\[0\]\.cpu must be >= 0, got -45$"),
            (("services", 0, "ram"), -5, r"^services\[0\]\.ram must be >= 0, got -5$"),
            (("arrival", "batch_models"), [[1], []],
             r"^arrival\.batch_models\[1\] must name at least one model$"),
            (("arrival", "kind"), "pyramid",
             r"^arrival\.batch_models needs kind 'constant', got 'pyramid'$"),
            (("models", 0, "structure"), "s,LOOP*99999999999999999999(s)",
             r"^models\[0\]\.structure: loop repetitions must be >= 1 and < 2\*\*63, "
             r"got 99999999999999999999$"),
            (("models", 1, "structure"), "s,LOOP*0(s)",
             r"^models\[1\]\.structure: loop repetitions must be >= 1 and < 2\*\*63, got 0$"),
            (("models", 1, "structure"), f"LOOP*{'9' * 5000}(s)",
             r"^models\[1\]\.structure: loop repetitions must be >= 1 and < 2\*\*63, got 9{5000}$"),
            (("models", 1, "structure"), "s,(s)",
             r"^models\[1\]\.structure: bad workflow structure at token '\('$"),
            (("services", 0, "cpu"), 0,
             r"^services\[0\]\.cpu or services\[0\]\.ram must be > 0, got 0 and 0$"),
            (("services", 1, "duration_s"), 0,
             r"^services\[1\]\.duration_s must be at least 1 ms, got 0$"),
            (("services", 2, "duration_s"), -40,
             r"^services\[2\]\.duration_s must be at least 1 ms, got -40$"),
            (("services", 0, "pull_s"), -1, r"^services\[0\]\.pull_s must be >= 0, got -1$"),
            (("services", 1, "start_s"), -2, r"^services\[1\]\.start_s must be >= 0, got -2$"),
            (("weights", "f_cpu"), -0.01, r"^weights\.f_cpu must be >= 0, got -0\.01$"),
            (("weights", "f_ram"), -0.01, r"^weights\.f_ram must be >= 0, got -0\.01$"),
            (("vm_types", 0, "cores"), 0, r"^vm_types\[0\]\.cores must be > 0, got 0$"),
            (("vm_types", 0, "cost_per_btu"), 0,
             r"^vm_types\[0\]\.cost_per_btu must be > 0, got 0$"),
            (("vm_types", 0, "pool_limit"), 0, r"^vm_types\[0\]\.pool_limit must be >= 1, got 0$"),
            (("btu_seconds",), 0, r"^btu_seconds must be at least 1 ms, got 0$"),
            (("btu_seconds",), -300, r"^btu_seconds must be at least 1 ms, got -300$"),
            (("btu_seconds",), 1.0e308, r"^btu_seconds must be finite in ms, got 1e\+308$"),
            (("vm_types", 0, "provider"), "public",
             r"^vm_types\[0\]: unknown key 'provider'$"),
            (("sla", "factor"), 1, r"^sla\.factor must be > 1, got 1$"),
            (("sla", "penalty_policy"), "x",
             r"^sla\.penalty_policy must be 'fraction' or 'per_10s', got 'x'$"),
            (("arrival", "kind"), "x", r"^arrival\.kind must be 'constant' or 'pyramid', got 'x'$"),
            (("services", 1, "name"), "A", r"^services\[1\]\.name: duplicate service 'A'$"),
            (("vm_types", 1, "name"), "p1", r"^vm_types\[1\]\.name: duplicate vm type 'p1'$"),
            (("models", 1, "id"), 1, r"^models\[1\]\.id: duplicate model id 1$"),
            (("models", 0, "steps"), ["A", "Z", "C"],
             r"^models\[0\]\.steps\[1\]: unknown service 'Z'$"),
            (("models", 0, "steps"), ["A"], r"^models\[0\]\.steps must list 3 services, got 1$"),
            (("arrival", "batch_models"), [[1], [2, 7]],
             r"^arrival\.batch_models\[1\]: unknown model 7$"),
        ],
        ids=["cpu", "arrival", "sla", "weights", "steps", "batch_models", "btu_seconds", "loop",
             "fractional_int", "string", "bool", "nan", "time_limit_ms", "btu_max", "gap",
             "negative_ram", "negative_startup", "negative_interval", "unknown_section_key",
             "unknown_entry_key", "unknown_top_key", "big_m", "no_requests",
             "negative_planning_rate", "ram_fits_no_vm", "cpu_fits_no_vm", "negative_cpu_demand",
             "negative_ram_demand", "empty_batch", "pyramid_batch", "undrawable_loop", "zero_loop",
             "loop_count_beyond_int_digits",
             "bare_parenthesis", "no_demand", "zero_duration", "negative_duration",
             "negative_pull", "negative_start", "negative_f_cpu", "negative_f_ram", "zero_cores",
             "zero_price", "zero_pool_limit", "zero_btu", "negative_btu", "btu_overflows_ms",
             "unknown_provider",
             "sla_factor_one", "unknown_penalty_policy",
             "unknown_arrival_kind", "duplicate_service", "duplicate_vm_type",
             "duplicate_model_id", "unknown_step_service", "step_count",
             "unknown_batch_model"],
    )
    def test_mistyped_value_rejected(self, path, value, error):
        raw = yaml.safe_load(preset_text("smoke"))
        *parents, key = path
        section = raw
        for part in parents:
            section = section[part]
        section[key] = value
        with pytest.raises(ScenarioError, match=error):
            parse_scenario(yaml.safe_dump(raw))

    @pytest.mark.parametrize("cpu, ram", [(-45.0, 10.0), (45.0, -5.0)])
    def test_service_with_negative_demand_rejected(self, cpu, ram):
        # The demand rules live in the schema: the parsed entry names the negative field.
        raw = yaml.safe_load(preset_text("smoke"))
        raw["services"][0].update(cpu=cpu, ram=ram)
        field_name, value = ("cpu", cpu) if cpu < 0 else ("ram", ram)
        with pytest.raises(
            ScenarioError, match=rf"^services\[0\]\.{field_name} must be >= 0, got {value}$"
        ):
            parse_scenario(yaml.safe_dump(raw))

    def test_loop_below_top_level_rejected(self):
        # The worst case counts such a loop's steps once, not per repetition.
        text = preset_text("smoke").replace('"s,AND(s|s)"', '"s,AND(LOOP*3(s)|s)"')
        with pytest.raises(
            ScenarioError, match=r"^models\[1\]\.structure: a loop inside a block or loop"
        ):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "structure, what",
        [
            ("AND(s,AND(s|s)|s)", "block"),
            ("AND(s,XOR(s|s)|s)", "block"),
            ("XOR(s,XOR(s|s)|s)", "block"),
            ("LOOP*2(XOR(s|s))", "block"),
            ("LOOP*2(AND(s|s))", "block"),
            ("s,AND(LOOP*3(s)|s)", "loop"),
        ],
    )
    def test_nested_shape_rejected(self, structure, what):
        # The worst case would count a nested block's branches in series.
        text = preset_text("smoke").replace('"s,AND(s|s)"', f'"{structure}"')
        with pytest.raises(
            ScenarioError,
            match=rf"^models\[1\]\.structure: a {what} inside a block or loop is not supported$",
        ):
            parse_scenario(text)

    def test_folded_structure_parses(self):
        # A folded YAML scalar ends in a newline.
        folded = preset_text("smoke").replace(
            '  - {id: 2, structure: "s,AND(s|s)"}\n',
            "  - id: 2\n    structure: >\n      s, AND(s | s)\n",
        )
        assert yaml.safe_load(folded)["models"][1]["structure"] == "s, AND(s | s)\n"
        model = parse_scenario(folded).models[1]
        assert model.paths.items == parse_scenario(preset_text("smoke")).models[1].paths.items

    def test_dangling_service_rejected(self):
        text = preset_text("smoke").replace(
            '{id: 1, structure: "s,s,s"}',
            '{id: 1, structure: "s,s,s", steps: [A, B, Q]}',
        )
        with pytest.raises(ScenarioError):
            parse_scenario(text)
