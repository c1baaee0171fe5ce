# Developer entry points (all zero-dependency beyond the dev extras).
#
#   make lint        — byte-compile + segugio-lint, both phases (the CI gate)
#   make lint-tests  — determinism hygiene (SEG002) over tests/ (CI lint job)
#   make test        — tier-1 suite
#   make check       — lint + lint-tests + test

PYTHON ?= python

.PHONY: lint lint-tests test check

lint:
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m tools.lint

lint-tests:
	$(PYTHON) -m tools.lint --select SEG002 tests

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

check: lint lint-tests test
