"""Time gpebo's set-up in a fresh interpreter and print it in seconds.

Set-up is the import of gpebo (numpy included), the CLI's config assembly
and the scenario build, up to the first integration step.  Usage:

    python3 perfbench/setup_probe.py SRC_DIR SPEC_JSON

SPEC_JSON holds either ``{"cli": [argv, ...]}`` or ``{"library": [{...}]}``
as written by the workloads' ``probe_spec``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(src: str, spec_text: str) -> float:
    spec = json.loads(spec_text)
    sys.path.insert(0, src)
    import gpebo
    from gpebo.cli import assemble_config, build_parser

    for argv in spec.get("cli", []):
        config = assemble_config(build_parser().parse_args(argv))
        for gamma in config.gammas:
            scenario = gpebo.builtin_scenario(
                config.scenario, gamma, estimator=config.estimator,
                horizon=config.horizon, step=config.step, x0=config.x0,
                xi0=config.xi0, theta_hat0=config.theta0,
            )
            gpebo.eval_system(scenario.system, 0.0)
    for item in spec.get("library", []):
        scenario = gpebo.builtin_scenario(
            item["scenario"], 0.0, horizon=item["horizon"], x0=item["x0"],
            xi0=item["xi0"], theta_hat0=item["theta0"],
        )
        gpebo.eval_system(scenario.system, 0.0)
    return time.perf_counter() - START


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
