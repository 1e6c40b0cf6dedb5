from .floorplan import (
    CELL_SIZE, CLASS_NAMES, CLASS_ID, VOID, FLOOR, WALL,
    OBJECT_CLASS_IDS, NUM_CLASSES, Floorplan, Room,
    generate_floorplan, floor_connected, pos_to_cell, cell_center,
    room_at, object_cells,
)
from .agent import (
    Pose, DepthScan, step_agent, raycast, wrap_angle,
    FORWARD_STEP, TURN_STEP, FOV, ACTIONS,
)
from .episodes import (
    Episode, shortest_path, astar_cells, generate_episode,
    resample_polyline, polyline_length,
    save_episodes, load_episodes, episode_to_json, episode_from_json,
)
