"""`python -m wcikit ...` runs the `wci` command line."""

from .cli import main

if __name__ == "__main__":
    main()
