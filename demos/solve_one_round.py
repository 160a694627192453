"""Build and solve a single scheduling round by hand.

Creates one process instance with a ready step, builds the placement MILP,
solves it, and prints the decoded plan and the resulting container actions.
"""

import importlib.resources

from ffsipp import controller, landscape, milp, optimizer


def main() -> None:
    text = (
        importlib.resources.files("ffsipp.presets").joinpath("smoke.yaml").read_text()
    )
    scenario = landscape.parse_scenario(text)
    model = scenario.models[1]
    inst = landscape.make_instance(
        model, scenario.services, iid=1, arrival_ms=0, deadline_ms=120_000,
        penalty_rate=0.1,
    )

    state = optimizer.SchedulingState(
        now_ms=0,
        instances=[inst],
        fleet=[],
        services=scenario.services,
        vm_types=scenario.vm_types,
    )
    config = optimizer.OptimizerConfig.from_scenario(scenario)
    ffsipp_model = optimizer.build(state, config)
    solution = milp.solve(ffsipp_model.problem, gap_tol=config.gap_tol)
    plan = ffsipp_model.decode(solution)

    print("objective:", round(solution.objective_value, 4))
    for name, value in plan.objective_terms.items():
        print(f"  {name}: {value:.4f}")
    for a in plan.assignments:
        print(
            f"step {a.step_index} ({a.service}) -> {a.vm_id}, "
            f"occupies {a.occupancy_ms} ms"
        )
    print("leases:", plan.lease_extensions)

    cplan = controller.transform(plan)
    for action in controller.plan_actions(cplan, cloud={}):
        print("action:", action)


if __name__ == "__main__":
    main()
