"""Fixed word vocabulary; id 0 = pad, id 1 = unk."""
from __future__ import annotations

PAD_ID = 0
UNK_ID = 1
MAX_TOKENS = 36

WORDS = [
    "<pad>", "<unk>",
    # object classes
    "table", "chair", "bed", "sofa", "sink", "toilet", "counter", "tv",
    "plant", "cabinet",
    # structure
    "wall", "floor", "door", "doorway", "corner", "room",
    # room types
    "bedroom", "bathroom", "kitchen", "lounge", "hallway",
    # directions / ordinals
    "left", "right", "straight", "ahead", "forward", "back", "around",
    "first", "second", "third", "fourth", "last", "next",
    # verbs
    "walk", "turn", "pass", "stop", "enter", "exit", "go", "head",
    "continue", "move", "follow", "reach", "face", "cross", "leave",
    "take", "keep",
    # glue
    "the", "a", "an", "then", "and", "near", "to", "into", "at", "past",
    "by", "of", "in", "on", "until", "towards", "through", "from", "your",
    "you", "it", "there", "is", "with", "when", "after", "before",
    # descriptors (grammar variety head-room)
    "big", "small", "open", "closed", "far", "close", "middle", "end",
    "start", "side", "front", "behind", "beside", "between", "along",
    "way", "path", "goal", "area", "space", "spot", "place", "point",
    "step", "steps", "meters", "slightly", "sharply", "again", "once",
    "twice", "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "here", "that", "this", "other",
]

WORD_TO_ID = {w: i for i, w in enumerate(WORDS)}
VOCAB_SIZE = len(WORDS)

