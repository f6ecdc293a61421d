"""Print the calibrated logical-resource table and its fit quality.

    python scripts/resource_table.py
"""
from dsfsim.resources import (DEFAULT_MODEL, REFERENCE_COSTS, algorithm_cost,
                              reference_plan, table_to_csv)


def main():
    plan = reference_plan(DEFAULT_MODEL)
    print(table_to_csv([algorithm_cost(plan, DEFAULT_MODEL, row[0])
                        for row in REFERENCE_COSTS]), end="")
    print()
    a, b, c = DEFAULT_MODEL.rotation_coefficients
    print(f"rotations/step = {a:.3f} N^2 L {b:+.3f} N^2 {c:+.3f} N   (L = N)")
    print(f"samples/pair = {DEFAULT_MODEL.samples_per_pair}, "
          f"volume/T = {DEFAULT_MODEL.volume_per_t:.2f}, "
          f"qubits = {DEFAULT_MODEL.qubit_slope:.0f} N "
          f"+ {DEFAULT_MODEL.qubit_intercept:.0f}")
    worst = {key: max(abs(r) for r in vals)
             for key, vals in DEFAULT_MODEL.fit_residuals.items()}
    print("worst fit residuals:", {k: f"{v:.2%}" for k, v in worst.items()})
    report = algorithm_cost(plan, DEFAULT_MODEL, 22)
    print(f"22-orbital case at 350 logical qubits, 1 MHz: "
          f"{report.runtime_days:.1f} days")


if __name__ == "__main__":
    main()
