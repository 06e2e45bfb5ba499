"""Self-corrective UWB + visual-odometry positioning toolkit.

Estimates a planar track from two complementary sensors: an absolute but
noisy UWB positioning unit and a smooth but drift-prone visual odometer.
The UWB stream is Kalman-filtered independently; at planned stopping points
a stream clusterer denoises the filtered samples into stop estimates, and
cumulative correction vectors realign the odometer whenever the two
technologies disagree. Kalman-fusion baselines, a fault-injecting flight
simulator, accuracy metrics, and a benchmark CLI round out the package.
"""

from . import baselines, clustering, core, ekf, metrics, pipeline, simulate

__version__ = "0.1.0"
