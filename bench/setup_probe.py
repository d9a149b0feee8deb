"""What every CLI call pays before it computes: import debond.cli, load a scenario.

    python3 bench/setup_probe.py SRC_DIR SCENARIO_YAML

``run.py`` starts this in a fresh interpreter once per round and times the
process from outside; the median is the ``setup_s`` metric.  A traced run
calls ``load_scenario`` in-process for ``config.load_s``.
"""

import sys


def load_scenario(path):
    """Load the scenario into model objects, as a CLI command does first."""
    from debond import config

    cfg = config.load_config(path)
    cfg.build_toughness()
    cfg.solver_config()
    for section, builder in (("initial", cfg.build_initial), ("target", cfg.build_target),
                             ("control", cfg.build_control)):
        if getattr(cfg, section) is not None:
            builder()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import debond.cli  # noqa: F401  (the import is part of what is measured)

    load_scenario(sys.argv[2])
