# Developer entry points.  Everything also works as plain pytest/pip
# commands; these are just the short spellings.

.PHONY: install test bench bench-full check-regression examples trace-demo top-demo clean

install:
	pip install -e .

# Tier-1 suite, same spelling as CI (works without `pip install -e .`).
test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

# The paper's exact dataset sizes (slow: hours, not minutes).
bench-full:
	REPRO_BENCH_RECORDS=250000 pytest benchmarks/ --benchmark-only

# Run one benchmark suite, benchmarks/bench_<name>.py, and write its
# document BENCH_<name>.json if every gate passes: `make bench-kernels`,
# `make bench-wallclock`, `make bench-predict`, `make bench-build-native`,
# `make bench-shard`, `make bench-serve`, `make bench-forest`,
# `make bench-native-threads`.
bench-%:
	PYTHONPATH=src python benchmarks/bench_$(subst -,_,$*).py

# Validate benchmark documents against their suites and diff them,
# tolerance-banded, against the committed baselines (self-check of the
# committed documents when CURRENT is unset; pass CURRENT=dir/ to gate
# fresh results).
check-regression:
	PYTHONPATH=src python benchmarks/check_regression.py \
		$(if $(CURRENT),--current $(CURRENT))

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		python $$ex || exit 1; \
	done

# Build a small tree with the observability layer on and dump a
# Perfetto-loadable Chrome trace plus Prometheus-format metrics.
trace-demo:
	PYTHONPATH=src python -m repro generate --records 4000 \
		-o /tmp/repro-trace-demo.npz
	PYTHONPATH=src python -m repro build -i /tmp/repro-trace-demo.npz \
		--algorithm basic --procs 4 \
		--trace-out /tmp/repro-trace-demo.json \
		--metrics-out /tmp/repro-trace-demo.prom
	@echo "open https://ui.perfetto.dev and load /tmp/repro-trace-demo.json"

# Serve a small tree with live telemetry on :9100, stream generated
# requests through it, and print one `repro top` dashboard frame.
top-demo:
	PYTHONPATH=src python -m repro generate --records 4000 \
		-o /tmp/repro-top-demo.npz
	PYTHONPATH=src python -m repro build -i /tmp/repro-top-demo.npz \
		--algorithm serial -o /tmp/repro-top-demo-tree.json
	PYTHONPATH=src python -c "import json, numpy as np; \
		from repro.data.io import load_dataset_npz; \
		d = load_dataset_npz('/tmp/repro-top-demo.npz'); \
		print('\n'.join(json.dumps({k: float(v) for k, v in d.tuple_at(i).items()}) for i in range(d.n_records)))" \
		> /tmp/repro-top-demo-requests.jsonl
	PYTHONPATH=src sh -c '\
		{ cat /tmp/repro-top-demo-requests.jsonl; sleep 3; } | \
		python -m repro serve --model /tmp/repro-top-demo-tree.json \
			--telemetry-port 9100 \
			--trace-out /tmp/repro-top-demo-trace.json > /dev/null & \
		sleep 1.5; \
		python -m repro top --url http://127.0.0.1:9100 --once; \
		STATUS=$$?; wait; exit $$STATUS'
	@echo "open https://ui.perfetto.dev and load /tmp/repro-top-demo-trace.json"

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
