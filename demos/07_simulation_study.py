"""A small end-to-end method comparison with the simulation harness.

One StudySpec describes the scenario grid (sample size, hypothesis count,
null fraction, correlation, signal strength), the methods to run, and the
seed; run_study executes every (cell, replicate, method) combination and
returns a tidy metric table.  Results are bit-reproducible for a given
seed.
"""

from artifact import StudySpec, run_study

study = StudySpec(
    n=10,
    m=200,
    pi0=[0.5, 0.9],          # fraction of true nulls
    rho=0.0,
    d=[1.0, 2.0],            # signal strength, statistic scale ~ sqrt(n)*d
    methods=("novel", "SAM-2", "BH", "LR"),
    t=1.0,                   # fixed threshold for the estimation metrics
    gamma=0.1,               # level for the control/power metrics
    replicates=500,
    seed=20260819,
)

table = run_study(study)

print("cell  pi0  d    method  metric             value      se")
for row in table.rows:
    if row.metric in ("mean_fdp_estimate", "power", "p_control"):
        print(
            f"{row.cell_id:>4}  {row.pi0:<4g} {row.d:<4g} {row.method:<7} "
            f"{row.metric:<18} {row.value:>7.4f}  {row.se:.4f}"
        )

print()
print("things to notice:")
print(" * novel and SAM-2 estimation rows are identical -- the two-transform")
print("   bound IS the mirror estimator at zero margins;")
print(" * novel p_control sits at/above 0.5 up to Monte Carlo error: the")
print("   guarantee is >= 1/2 and these boundary nulls make it tight;")
print(" * in the dense strong-signal cells the novel control is at least as")
print("   powerful as BH and LR; in the sparse weak cell (pi0=0.9, d=1) BH")
print("   edges ahead -- the guarantee is about median FDP, not power.")

# table.write_csv("metrics.csv") persists the table; the `artifact simulate`
# CLI wraps all of this with a JSON study spec and summary output.
