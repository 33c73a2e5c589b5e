"""`python -m atomfield`: the command line of `atomfield.cli`, the same as the
`atomfield` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
