//! The journal: the recorded command stream for deterministic replay.

use super::ops::Command;

/// A recorded command stream: the deterministic-replay artifact.
///
/// The shell appends every executed command (including ones that
/// returned an error — a rejected `open` still warmed the metadata
/// cache, so replay must repeat it). [`super::replay`] folds
/// [`super::step`] over the stream to reconstruct the final state and
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    commands: Vec<Command>,
}

impl Journal {
    /// Creates an empty journal.
    pub(crate) fn new() -> Self {
        Journal::default()
    }

    /// Appends a command.
    pub(crate) fn push(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// The recorded commands, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}
