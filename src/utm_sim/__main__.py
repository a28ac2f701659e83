"""`python -m utm_sim`: the `utm-sim` command line."""
from .scenario_cli import main
raise SystemExit(main())
