"""`python -m perfcol`: the command line without the console script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
